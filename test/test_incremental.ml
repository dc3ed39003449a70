(* Incremental SA cost evaluation (DESIGN.md section 14).

   The contract under test: [Slicing.Inc] evaluated along any random
   M1/M2/M3 perturbation sequence is bit for bit [Layout.evaluate] on
   the same expression — violations, rectangles and centers; the
   annealer's per-start cost function returns, move after move, the
   cost, wirelength and violations of the full [Layout_gen.eval_expr];
   [Layout_gen.run] is bit-identical at every job count and, behind its
   per-start cost cache, to the same search on the uncached cost; the
   configured start count is honored exactly (sa_starts = 1 runs one
   start); and an asymmetric affinity matrix is rejected with a
   structured diagnostic instead of silently dropping weight. *)

module Rect = Geom.Rect
module Point = Geom.Point
module Curve = Shape.Curve
module Polish = Slicing.Polish
module Layout = Slicing.Layout
module Inc = Slicing.Inc
module LG = Hidap.Layout_gen

let qtest ~count name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let beq a b = Int64.bits_of_float a = Int64.bits_of_float b

let beq_viol (a : Layout.violations) (b : Layout.violations) =
  beq a.Layout.at_shift b.Layout.at_shift
  && beq a.Layout.am_deficit b.Layout.am_deficit
  && beq a.Layout.macro_deficit b.Layout.macro_deficit

let beq_rect (a : Rect.t) (b : Rect.t) =
  beq a.Rect.x b.Rect.x && beq a.Rect.y b.Rect.y && beq a.Rect.w b.Rect.w
  && beq a.Rect.h b.Rect.h

let seed_arb = QCheck.int_range 0 1_000_000

(* Random leaves: a mix of unconstrained (soft) and macro-curved blocks,
   with areas that may or may not fit the budget so every violation
   grade shows up in the comparison. *)
let random_leaves rng ~budget n =
  Array.init n (fun lid ->
      let am =
        1.0 +. Util.Rng.float rng (1.5 *. Rect.area budget /. float_of_int n)
      in
      let curve =
        if Util.Rng.bool rng then Curve.unconstrained
        else
          Curve.of_macro
            ~w:(1.0 +. Util.Rng.float rng 6.0)
            ~h:(1.0 +. Util.Rng.float rng 6.0)
            ()
      in
      { Layout.lid; curve; area_min = am;
        area_target = am *. (1.0 +. Util.Rng.float rng 0.5) })

let random_budget rng =
  Rect.make ~x:0.0 ~y:0.0
    ~w:(5.0 +. Util.Rng.float rng 45.0)
    ~h:(5.0 +. Util.Rng.float rng 45.0)

(* One incremental evaluation checked bitwise against the full one. *)
let check_step inc expr ~leaves ~budget =
  let vi = Inc.evaluate inc expr in
  let p = Layout.evaluate expr ~leaves ~budget in
  let rects = Inc.rects inc and cx = Inc.centers_x inc and cy = Inc.centers_y inc in
  beq_viol vi (Inc.violations inc)
  && beq_viol vi p.Layout.viol
  && List.length p.Layout.rects = Array.length leaves
  && List.for_all
       (fun (lid, r) ->
         let c = Rect.center r in
         beq_rect r rects.(lid)
         && beq c.Point.x cx.(lid)
         && beq c.Point.y cy.(lid))
       p.Layout.rects

(* ---- incremental vs full along move sequences ----------------------- *)

(* A random 12-move walk from a random expression, every step checked. *)
let walk_matches_full rng ~leaves ~budget =
  let n = Array.length leaves in
  let inc = Inc.create ~table:(Layout.leaf_table leaves) ~budget in
  let expr = ref (Polish.initial_random rng ~n) in
  let ok = ref (check_step inc !expr ~leaves ~budget) in
  for _ = 1 to 12 do
    expr := Polish.perturb rng !expr;
    ok := !ok && check_step inc !expr ~leaves ~budget
  done;
  !ok

let inc_matches_full_random_walk =
  qtest ~count:150 "incremental = full along random M1/M2/M3 walks, bitwise"
    seed_arb (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 2 + Util.Rng.int rng 9 in
      let budget = random_budget rng in
      walk_matches_full rng ~leaves:(random_leaves rng ~budget n) ~budget)

(* Each move kind on its own, so a regression in one diff path cannot
   hide behind the others in the mixed walk above. *)
let inc_matches_full_per_move =
  qtest ~count:100 "incremental = full for each move kind in isolation"
    seed_arb (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 3 + Util.Rng.int rng 8 in
      let budget = random_budget rng in
      let leaves = random_leaves rng ~budget n in
      let table = Layout.leaf_table leaves in
      List.for_all
        (fun move ->
          let inc = Inc.create ~table ~budget in
          let expr = ref (Polish.initial_random rng ~n) in
          let ok = ref (check_step inc !expr ~leaves ~budget) in
          for _ = 1 to 6 do
            (match move rng !expr with Some e -> expr := e | None -> ());
            ok := !ok && check_step inc !expr ~leaves ~budget
          done;
          !ok)
        [ Polish.move_m1; Polish.move_m2; Polish.move_m3 ])

(* The annealer's reject pattern: evaluate A, candidate B, then A again.
   The third evaluation diffs as a reverted window and must still be
   bit-identical to a cold full evaluation of A. *)
let inc_handles_reverts =
  qtest ~count:150 "evaluating A, B, A again stays bit-identical" seed_arb
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 2 + Util.Rng.int rng 9 in
      let budget = random_budget rng in
      let leaves = random_leaves rng ~budget n in
      let table = Layout.leaf_table leaves in
      let inc = Inc.create ~table ~budget in
      let a = Polish.initial_random rng ~n in
      let b = Polish.perturb rng a in
      check_step inc a ~leaves ~budget
      && check_step inc b ~leaves ~budget
      && check_step inc a ~leaves ~budget)

(* Leaf curves longer than [Layout.max_curve_points] (a flow configured
   with [Config.max_curve_points = 48] produces them): an operator over
   two such leaves merges up to 95 points into its buffer before pruning
   them back in place, the buffers' capacity edge. *)
let long_curve rng =
  let n = 25 + Util.Rng.int rng 24 in
  let area = 20.0 +. Util.Rng.float rng 30.0 in
  Curve.of_points
    (List.init n (fun i ->
         let w = 1.0 +. (float_of_int i *. (0.5 +. Util.Rng.float rng 0.1)) in
         (w, area /. w)))

let inc_matches_full_long_curves =
  qtest ~count:60 "incremental = full with leaf curves over max_curve_points"
    seed_arb (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 2 + Util.Rng.int rng 9 in
      let budget = random_budget rng in
      let leaves =
        Array.map
          (fun (l : Layout.leaf) ->
            if l.Layout.lid > 0 && Util.Rng.int rng 4 = 0 then l
            else { l with Layout.curve = long_curve rng })
          (random_leaves rng ~budget n)
      in
      walk_matches_full rng ~leaves ~budget)

(* ---- the annealer's cost and the search result ---------------------- *)

let fast_config ~jobs =
  { Hidap.Config.default with
    Hidap.Config.jobs;
    sa_starts = 3;
    layout_sa = { Anneal.Sa.quick_params with Anneal.Sa.max_moves = 600 } }

let random_instance seed =
  let rng = Util.Rng.create seed in
  let n = 2 + Util.Rng.int rng 7 in
  let nf = Util.Rng.int rng 3 in
  let budget = random_budget rng in
  let blocks =
    Array.init n (fun i ->
        let am =
          1.0 +. Util.Rng.float rng (1.5 *. Rect.area budget /. float_of_int n)
        in
        { Hidap.Block.idx = i; ht_id = i; name = Printf.sprintf "b%d" i;
          curve = Curve.unconstrained;
          am;
          at = am *. (1.0 +. Util.Rng.float rng 0.5);
          macro_count = Util.Rng.int rng 3 })
  in
  let total = n + nf in
  let affinity = Array.make_matrix total total 0.0 in
  for i = 0 to total - 1 do
    for j = i + 1 to total - 1 do
      if Util.Rng.bool rng then begin
        let w = 0.1 +. Util.Rng.float rng 2.0 in
        affinity.(i).(j) <- w;
        affinity.(j).(i) <- w
      end
    done
  done;
  let fixed_pos =
    Array.init nf (fun _ ->
        Point.make (Util.Rng.float rng budget.Rect.w)
          (Util.Rng.float rng budget.Rect.h))
  in
  (blocks, affinity, fixed_pos, budget)

let run_one seed ~jobs =
  let blocks, affinity, fixed_pos, budget = random_instance seed in
  LG.run
    ~rng:(Util.Rng.create (seed + 7))
    ~config:(fast_config ~jobs) ~blocks ~affinity ~fixed_pos ~budget ()

let same_result (a : LG.result) (b : LG.result) =
  Array.length a.LG.rects = Array.length b.LG.rects
  && Array.for_all2 beq_rect a.LG.rects b.LG.rects
  && beq a.LG.cost b.LG.cost
  && beq a.LG.wirelength_term b.LG.wirelength_term
  && beq_viol a.LG.viol b.LG.viol
  && a.LG.sa_moves = b.LG.sa_moves

(* The cost closure the annealer minimizes, checked move by move against
   the full evaluation that reports the placed instance. Some blocks get
   macro curves so the macro-deficit grades take part too. *)
let sa_cost_matches_full =
  qtest ~count:100 "SA cost = eval_expr along random M1/M2/M3 walks" seed_arb
    (fun seed ->
      let blocks, affinity, fixed_pos, budget = random_instance seed in
      let rng = Util.Rng.create (seed + 1) in
      let blocks =
        Array.map
          (fun (b : Hidap.Block.t) ->
            if Util.Rng.bool rng then b
            else
              { b with
                Hidap.Block.curve =
                  Curve.of_macro
                    ~w:(1.0 +. Util.Rng.float rng 6.0)
                    ~h:(1.0 +. Util.Rng.float rng 6.0)
                    () })
          blocks
      in
      let config = fast_config ~jobs:1 in
      let cost = LG.sa_cost ~config ~blocks ~affinity ~fixed_pos ~budget in
      let check expr =
        let c, wl, viol = cost expr in
        let r = LG.eval_expr ~config ~blocks ~affinity ~fixed_pos ~budget expr in
        beq c r.LG.cost && beq wl r.LG.wirelength_term && beq_viol viol r.LG.viol
      in
      let expr = ref (Polish.initial_random rng ~n:(Array.length blocks)) in
      let ok = ref (check !expr) in
      for _ = 1 to 12 do
        expr := Polish.perturb rng !expr;
        ok := !ok && check !expr
      done;
      !ok)

let run_is_jobs_neutral =
  qtest ~count:8 "run is bit-identical at jobs 1, 2 and 4" seed_arb (fun seed ->
      let base = run_one seed ~jobs:1 in
      List.for_all (fun jobs -> same_result base (run_one seed ~jobs)) [ 2; 4 ])

(* ---- allocation bounds ---------------------------------------------- *)

(* A fixed instance: [n] blocks, most with a macro curve, plus three
   fixed endpoints, with a seeded affinity matrix. *)
let fixed_instance n =
  let rng = Util.Rng.create n in
  let budget = Rect.make ~x:0.0 ~y:0.0 ~w:400.0 ~h:300.0 in
  let blocks =
    Array.init n (fun i ->
        let am = 200.0 +. Util.Rng.float rng (Rect.area budget /. float_of_int n) in
        { Hidap.Block.idx = i; ht_id = i; name = Printf.sprintf "b%d" i;
          curve =
            (if i mod 4 = 3 then Curve.unconstrained
             else
               Curve.of_macro ~w:(5.0 +. Util.Rng.float rng 20.0)
                 ~h:(5.0 +. Util.Rng.float rng 20.0) ());
          am;
          at = am *. (1.0 +. Util.Rng.float rng 0.5);
          macro_count = 1 })
  in
  let total = n + 3 in
  let affinity = Array.make_matrix total total 0.0 in
  for i = 0 to total - 1 do
    for j = i + 1 to total - 1 do
      if Util.Rng.int rng 3 = 0 then begin
        let w = 0.1 +. Util.Rng.float rng 2.0 in
        affinity.(i).(j) <- w;
        affinity.(j).(i) <- w
      end
    done
  done;
  let fixed_pos =
    [| Point.make 0.0 0.0; Point.make 400.0 150.0; Point.make 200.0 300.0 |]
  in
  (blocks, affinity, fixed_pos, budget)

(* ---- the per-start cost cache --------------------------------------- *)

let expr_key e =
  String.concat " "
    (List.map
       (function
         | Polish.Operand v -> string_of_int v
         | Polish.Operator Polish.H -> "H"
         | Polish.Operator Polish.V -> "V")
       (Array.to_list (Polish.elements e)))

let beq_plateau (a : Anneal.Sa.plateau) (b : Anneal.Sa.plateau) =
  a.Anneal.Sa.index = b.Anneal.Sa.index
  && beq a.Anneal.Sa.temperature b.Anneal.Sa.temperature
  && beq a.Anneal.Sa.current_cost b.Anneal.Sa.current_cost
  && beq a.Anneal.Sa.plateau_best_cost b.Anneal.Sa.plateau_best_cost
  && a.Anneal.Sa.plateau_moves = b.Anneal.Sa.plateau_moves
  && a.Anneal.Sa.plateau_accepted = b.Anneal.Sa.plateau_accepted
  && a.Anneal.Sa.total_moves = b.Anneal.Sa.total_moves

let beq_breakdown (a : LG.breakdown) (b : LG.breakdown) =
  List.for_all2 (fun (_, x) (_, y) -> beq x y) (LG.breakdown_terms a)
    (LG.breakdown_terms b)

(* [Layout_gen.run]'s search rebuilt on the uncached [Layout_gen.sa_cost]:
   the same starts, streams, moves and reduction, with the running-best
   bookkeeping of the term observer done on every call. Returns the full
   evaluation of the winner, the per-plateau (snapshot, breakdown) log
   in start order, and the largest number of distinct expressions one
   start evaluated. *)
let reference_run ~rng ~config ~blocks ~affinity ~fixed_pos ~budget =
  let n_blocks = Array.length blocks in
  let n_pairs =
    Array.length
      (LG.eval_expr ~config ~blocks ~affinity ~fixed_pos ~budget
         (Polish.initial ~n:n_blocks))
        .LG.attribution.LG.attr_pairs
  in
  let log = ref [] and distinct_max = ref 0 in
  let results =
    Array.map
      (fun (init, srng) ->
        let cost_of = LG.sa_cost ~config ~blocks ~affinity ~fixed_pos ~budget in
        let seen = Hashtbl.create 4096 in
        let best = ref infinity and best_wl = ref 0.0 in
        let best_viol = ref Layout.no_violations in
        let cost e =
          Hashtbl.replace seen (expr_key e) ();
          let c, wl, viol = cost_of e in
          if not (!best <= c) then begin
            best := c;
            best_wl := wl;
            best_viol := viol
          end;
          c
        in
        let observer p =
          log :=
            ( p,
              LG.breakdown_of ~cost:!best ~wirelength:!best_wl ~viol:!best_viol
                ~config ~budget ~n_pairs )
            :: !log
        in
        let r =
          Anneal.Sa.minimize ~rng:srng ~init ~cost
            ~neighbor:(fun rng e -> Polish.perturb rng e)
            ~params:config.Hidap.Config.layout_sa ~observer ()
        in
        distinct_max := max !distinct_max (Hashtbl.length seen);
        r)
      (LG.annealing_starts ~rng ~config ~affinity ~n_blocks)
  in
  let best_i = ref 0 in
  Array.iteri
    (fun i (r : _ Anneal.Sa.result) ->
      if r.Anneal.Sa.best_cost < results.(!best_i).Anneal.Sa.best_cost then best_i := i)
    results;
  let sa_moves =
    Array.fold_left
      (fun acc (r : _ Anneal.Sa.result) ->
        acc + r.Anneal.Sa.moves + r.Anneal.Sa.calibration_moves)
      0 results
  in
  let r = LG.eval_expr ~config ~blocks ~affinity ~fixed_pos ~budget
      results.(!best_i).Anneal.Sa.best in
  ({ r with LG.sa_moves }, List.rev !log, !distinct_max)

(* The cached search against the reference, both without and with the
   observers: same winner (hence rectangles and cost), same move count,
   and the same per-plateau snapshots and running-best breakdowns. *)
let cached_matches_reference ~seed ~config ~blocks ~affinity ~fixed_pos ~budget =
  let reference, ref_log, distinct =
    reference_run ~rng:(Util.Rng.create seed) ~config ~blocks ~affinity ~fixed_pos
      ~budget
  in
  let plain =
    LG.run ~rng:(Util.Rng.create seed) ~config ~blocks ~affinity ~fixed_pos ~budget ()
  in
  let log = ref [] in
  let observed =
    LG.run ~rng:(Util.Rng.create seed) ~config ~blocks ~affinity ~fixed_pos ~budget
      ~term_observer:(fun p bd -> log := (p, bd) :: !log)
      ()
  in
  let log = List.rev !log in
  ( same_result plain reference
    && same_result observed reference
    && List.length log = List.length ref_log
    && List.for_all2
         (fun (p, bd) (rp, rbd) -> beq_plateau p rp && beq_breakdown bd rbd)
         log ref_log,
    distinct )

let cache_matches_uncached =
  qtest ~count:30 "cached run = SA on the uncached cost, 2-8 blocks, both paths"
    seed_arb (fun seed ->
      let blocks, affinity, fixed_pos, budget = random_instance seed in
      fst
        (cached_matches_reference ~seed:(seed + 7) ~config:(fast_config ~jobs:1)
           ~blocks ~affinity ~fixed_pos ~budget))

(* A full schedule on 7 blocks visits more distinct expressions in one
   start than the cache has slots, so slots are overwritten and probes
   collide; the run must still match the uncached search exactly. *)
let test_cache_collisions () =
  let blocks, affinity, fixed_pos, budget = fixed_instance 7 in
  let config =
    { Hidap.Config.default with
      Hidap.Config.jobs = 1;
      sa_starts = 2;
      layout_sa = { Anneal.Sa.default_params with Anneal.Sa.moves_per_plateau = 192 } }
  in
  let same, distinct =
    cached_matches_reference ~seed:11 ~config ~blocks ~affinity ~fixed_pos ~budget
  in
  if distinct <= 4096 then
    Alcotest.failf "one start evaluated only %d distinct expressions" distinct;
  Alcotest.(check bool) "cached run = uncached SA under slot collisions" true same

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A warm [Inc.evaluate] allocates only its returned violations record
   (four words), whatever the block count and however much of the tree
   a move re-derives: curves go into per-node buffers and every float
   stays unboxed. The walk is generated up front so [perturb]'s own
   allocation is not counted. *)
let test_inc_evaluate_allocation () =
  let per_eval n =
    let blocks, _, _, budget = fixed_instance n in
    let leaves = Array.map Hidap.Block.to_leaf blocks in
    let inc = Inc.create ~table:(Layout.leaf_table leaves) ~budget in
    let rng = Util.Rng.create 5 in
    let walk = Array.make 400 (Polish.initial_random rng ~n) in
    for i = 1 to Array.length walk - 1 do
      walk.(i) <- Polish.perturb rng walk.(i - 1)
    done;
    ignore (Inc.evaluate inc walk.(0));
    let words =
      minor_words (fun () ->
          for i = 1 to Array.length walk - 1 do
            ignore (Sys.opaque_identity (Inc.evaluate inc walk.(i)))
          done)
    in
    words /. float_of_int (Array.length walk - 1)
  in
  List.iter
    (fun n ->
      let w = per_eval n in
      if w > 4.5 then
        Alcotest.failf "a warm Inc.evaluate on %d blocks allocates %.2f words" n w)
    [ 4; 17; 40 ]

(* One SA move of [Layout_gen.run] — perturbation, incremental
   evaluation, pair-wirelength fold and cost — on a fixed 17-block
   instance, with setup and the final full evaluation amortized over the
   whole search. *)
let test_sa_move_allocation () =
  let blocks, affinity, fixed_pos, budget = fixed_instance 17 in
  let config = { Hidap.Config.default with Hidap.Config.jobs = 1 } in
  let moves = ref 0 in
  let words =
    minor_words (fun () ->
        let r =
          LG.run ~rng:(Util.Rng.create 3) ~config ~blocks ~affinity ~fixed_pos ~budget ()
        in
        moves := r.LG.sa_moves)
  in
  let per_move = words /. float_of_int !moves in
  if !moves < 10_000 || per_move > 256.0 then
    Alcotest.failf "%d SA moves allocated %.1f words each" !moves per_move

(* ---- sa_starts is honored exactly ----------------------------------- *)

(* Every start beyond the first bumps the reheat counter, so the
   counter pins the actual start count: sa_starts = 1 must report zero
   reheats (it used to silently run the reversed chain as a second
   start). *)
let test_sa_starts_honored () =
  List.iter
    (fun n_starts ->
      let blocks, affinity, fixed_pos, budget = random_instance 42 in
      let config =
        { (fast_config ~jobs:1) with
          Hidap.Config.sa_starts = n_starts }
      in
      let reg = Obs.Metrics.create () in
      Obs.Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set_enabled false)
        (fun () ->
          Obs.Metrics.with_ambient reg (fun () ->
              ignore
                (LG.run ~rng:(Util.Rng.create 1) ~config ~blocks ~affinity
                   ~fixed_pos ~budget ())));
      Alcotest.(check (option int))
        (Printf.sprintf "sa_starts = %d runs exactly %d starts" n_starts n_starts)
        (Some (n_starts - 1))
        (Obs.Metrics.counter_value reg "sa.reheats"))
    [ 1; 2; 4 ]

(* ---- asymmetric affinity is rejected -------------------------------- *)

let diag_code = function Guard.Diag.Fail d -> Some d.Guard.Diag.code | _ -> None

let test_asymmetric_affinity_rejected () =
  let blocks, affinity, fixed_pos, budget = random_instance 7 in
  affinity.(0).(1) <- 1.0;
  affinity.(1).(0) <- 2.0;
  (match
     LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos
       ~budget
       (Polish.initial ~n:(Array.length blocks))
   with
  | exception (Guard.Diag.Fail _ as e) ->
    Alcotest.(check (option string))
      "asymmetric matrix fails with asymmetric-affinity"
      (Some "asymmetric-affinity") (diag_code e)
  | _ -> Alcotest.fail "asymmetric affinity was accepted");
  affinity.(1).(0) <- Float.nan;
  match
    LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos
      ~budget
      (Polish.initial ~n:(Array.length blocks))
  with
  | exception (Guard.Diag.Fail _ as e) ->
    Alcotest.(check (option string)) "NaN weight fails with asymmetric-affinity"
      (Some "asymmetric-affinity") (diag_code e)
  | _ -> Alcotest.fail "NaN affinity weight was accepted"

let suite =
  [ ( "incremental",
      [ inc_matches_full_random_walk; inc_matches_full_per_move;
        inc_handles_reverts; inc_matches_full_long_curves; sa_cost_matches_full; run_is_jobs_neutral;
        cache_matches_uncached;
        Alcotest.test_case "cached run matches under slot collisions" `Quick
          test_cache_collisions;
        Alcotest.test_case "warm Inc.evaluate allocates a constant" `Quick
          test_inc_evaluate_allocation;
        Alcotest.test_case "an SA move allocates at most 256 words" `Quick
          test_sa_move_allocation;
        Alcotest.test_case "sa_starts honored exactly" `Quick
          test_sa_starts_honored;
        Alcotest.test_case "asymmetric affinity rejected" `Quick
          test_asymmetric_affinity_rejected ] ) ]
