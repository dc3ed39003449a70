(* Tests for the HiDaP core: shape curves SGamma, port plan, target-area
   assignment, layout generation, the recursive floorplan, flipping, and
   the end-to-end flow. *)

module Flat = Netlist.Flat
module Tree = Hier.Tree
module Rect = Geom.Rect
module Point = Geom.Point
module O = Geom.Orientation

let check_float = Alcotest.(check (float 1e-6))

let fig1_flat = lazy (Flat.elaborate (Circuitgen.Suite.fig1_design ()))

let fig1_placed = lazy (Hidap.place (Lazy.force fig1_flat))

(* ---- config ------------------------------------------------------- *)

let test_config_defaults () =
  let c = Hidap.Config.default in
  Alcotest.(check (list (float 1e-9))) "paper lambda sweep" [ 0.2; 0.5; 0.8 ]
    c.Hidap.Config.lambda_sweep;
  check_float "open frac 40%" 0.40 c.Hidap.Config.open_frac;
  check_float "min frac 1%" 0.01 c.Hidap.Config.min_frac;
  let c' = Hidap.Config.with_lambda c 0.3 in
  Alcotest.(check (list (float 1e-9))) "with_lambda collapses sweep" [ 0.3 ]
    c'.Hidap.Config.lambda_sweep

(* ---- die sizing --------------------------------------------------- *)

let test_die_for () =
  let flat = Lazy.force fig1_flat in
  let config = Hidap.Config.default in
  let die = Hidap.die_for flat ~config in
  check_float "utilization honoured"
    (Flat.total_cell_area flat /. config.Hidap.Config.utilization)
    (Rect.area die);
  check_float "square by default" 1.0 (Rect.aspect_ratio die)

(* ---- port plan ---------------------------------------------------- *)

let test_port_plan () =
  let flat = Lazy.force fig1_flat in
  let gseq = Seqgraph.build flat in
  let die = Hidap.die_for flat ~config:Hidap.Config.default in
  let plan = Hidap.Port_plan.make gseq ~die in
  let nodes = Hidap.Port_plan.port_nodes plan in
  Alcotest.(check bool) "has port arrays" true (nodes <> []);
  List.iter
    (fun gid ->
      match Hidap.Port_plan.gseq_pos plan gid with
      | None -> Alcotest.fail "port without position"
      | Some p ->
        let on_boundary =
          abs_float (p.Point.x -. die.Rect.x) < 1e-6
          || abs_float (p.Point.x -. (die.Rect.x +. die.Rect.w)) < 1e-6
          || abs_float (p.Point.y -. die.Rect.y) < 1e-6
          || abs_float (p.Point.y -. (die.Rect.y +. die.Rect.h)) < 1e-6
        in
        Alcotest.(check bool) "on die boundary" true on_boundary)
    nodes;
  (* flat ports inherit their array's position *)
  Array.iter
    (fun (n : Flat.node) ->
      if Flat.is_port n then
        Alcotest.(check bool) "flat port has a position" true
          (Hidap.Port_plan.flat_pos plan n.Flat.id <> None))
    flat.Flat.nodes

let test_port_plan_deterministic () =
  let flat = Lazy.force fig1_flat in
  let gseq = Seqgraph.build flat in
  let die = Hidap.die_for flat ~config:Hidap.Config.default in
  let p1 = Hidap.Port_plan.make gseq ~die and p2 = Hidap.Port_plan.make gseq ~die in
  Alcotest.(check (list int)) "same order" (Hidap.Port_plan.port_nodes p1)
    (Hidap.Port_plan.port_nodes p2)

(* ---- shape curves -------------------------------------------------- *)

let test_sgamma_leaves () =
  let flat = Lazy.force fig1_flat in
  let tree = Tree.build flat in
  let sg =
    Hidap.Shape_curves.generate tree ~config:Hidap.Config.default ~rng:(Util.Rng.create 2)
  in
  Array.iter
    (fun (n : Flat.node) ->
      if Flat.is_macro n then begin
        let ht = Tree.ht_node_of_flat tree n.Flat.id in
        let c = Hidap.Shape_curves.curve sg ht in
        (match n.Flat.kind with
        | Flat.Kmacro info ->
          Alcotest.(check bool) "leaf curve fits macro" true
            (Shape.Curve.fits c ~w:info.Netlist.Design.mw ~h:info.Netlist.Design.mh);
          check_float "leaf macro area" (info.Netlist.Design.mw *. info.Netlist.Design.mh)
            (Hidap.Shape_curves.macro_area sg ht)
        | _ -> assert false)
      end)
    flat.Flat.nodes

let test_sgamma_packing_quality () =
  let flat = Lazy.force fig1_flat in
  let tree = Tree.build flat in
  let sg =
    Hidap.Shape_curves.generate tree ~config:Hidap.Config.default ~rng:(Util.Rng.create 2)
  in
  for id = 0 to Tree.node_count tree - 1 do
    if Tree.macro_count tree id > 0 then begin
      let c = Hidap.Shape_curves.curve sg id in
      let ma = Hidap.Shape_curves.macro_area sg id in
      Alcotest.(check bool) "constrained" false (Shape.Curve.is_unconstrained c);
      (* a slicing packing wastes some area but must hold all macros *)
      Alcotest.(check bool) "min area >= macro area" true
        (Shape.Curve.min_area c >= ma -. 1e-6);
      Alcotest.(check bool) "packing efficiency > 0.5" true
        (ma /. Shape.Curve.min_area c > 0.5)
    end
    else
      Alcotest.(check bool) "macro-free nodes unconstrained" true
        (Shape.Curve.is_unconstrained (Hidap.Shape_curves.curve sg id))
  done

(* ---- target area --------------------------------------------------- *)

let test_target_area () =
  let flat = Lazy.force fig1_flat in
  let tree = Tree.build flat in
  let root = Tree.root tree in
  let dc = Hier.Decluster.run tree ~nh:root ~open_frac:0.4 ~min_frac:0.01 in
  let sg =
    Hidap.Shape_curves.generate tree ~config:Hidap.Config.default ~rng:(Util.Rng.create 2)
  in
  let blocks =
    Hidap.Target_area.assign tree ~sgamma:sg ~hcb:dc.Hier.Decluster.hcb
      ~hcg:dc.Hier.Decluster.hcg
  in
  Array.iter
    (fun (b : Hidap.Block.t) ->
      Alcotest.(check bool) "at >= am" true (b.Hidap.Block.at >= b.Hidap.Block.am -. 1e-9))
    blocks;
  let at_sum = Array.fold_left (fun a (b : Hidap.Block.t) -> a +. b.Hidap.Block.at) 0.0 blocks in
  check_float "at sums to the whole instance area" (Tree.area tree root) at_sum

(* Target-area assignment reads the nearest-block label of glue cells
   only, so its search stops once they are all labelled. On every
   decluster instance of c1 (two levels deep) each glue cell must get
   the full search's label. *)
let test_target_area_early_exit () =
  let flat =
    match Circuitgen.Suite.find "c1" with
    | Some c -> Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params)
    | None -> Alcotest.fail "c1 missing from the suite"
  in
  let tree = Tree.build flat in
  let check nh =
    let dc = Hier.Decluster.run tree ~nh ~open_frac:0.4 ~min_frac:0.01 in
    let sources =
      List.concat
        (List.mapi
           (fun bi ht -> List.map (fun cid -> (cid, bi)) (Tree.cells_below tree ht))
           dc.Hier.Decluster.hcb)
    in
    let glue =
      Array.of_list (List.concat_map (Tree.cells_below tree) dc.Hier.Decluster.hcg)
    in
    let full = Graphlib.Traversal.multi_source_nearest flat.Flat.gnet ~sources in
    let early =
      Graphlib.Traversal.multi_source_nearest ~targets:glue flat.Flat.gnet ~sources
    in
    Array.iter
      (fun cid -> Alcotest.(check int) "glue cell label" full.(cid) early.(cid))
      glue;
    dc.Hier.Decluster.hcb
  in
  List.iter (fun ht -> ignore (check ht)) (check (Tree.root tree))

(* ---- layout generation --------------------------------------------- *)

let test_layout_gen_single_block () =
  let budget = Rect.make ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 in
  let blocks =
    [| { Hidap.Block.idx = 0; ht_id = 0; name = "b"; curve = Shape.Curve.unconstrained;
         am = 50.0; at = 80.0; macro_count = 0 } |]
  in
  let r =
    Hidap.Layout_gen.run ~rng:(Util.Rng.create 1) ~config:Hidap.Config.default ~blocks
      ~affinity:(Array.make_matrix 1 1 0.0) ~fixed_pos:[||] ~budget ()
  in
  Alcotest.(check bool) "single block takes the budget" true
    (Rect.equal r.Hidap.Layout_gen.rects.(0) budget)

let test_layout_gen_single_block_penalized () =
  (* A lone block violating its budget must pay the same graded penalty
     as the multi-block path, not report a free cost of zero. *)
  let budget = Rect.make ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 in
  let blocks am =
    [| { Hidap.Block.idx = 0; ht_id = 0; name = "b"; curve = Shape.Curve.unconstrained;
         am; at = am; macro_count = 0 } |]
  in
  let run blocks =
    Hidap.Layout_gen.run ~rng:(Util.Rng.create 1) ~config:Hidap.Config.default ~blocks
      ~affinity:(Array.make_matrix 1 1 0.0) ~fixed_pos:[||] ~budget ()
  in
  let ok = run (blocks 50.0) in
  let bad = run (blocks 150.0) in
  Alcotest.(check bool) "violating block pays a penalty" true
    (bad.Hidap.Layout_gen.cost > ok.Hidap.Layout_gen.cost);
  Alcotest.(check bool) "am deficit recorded" true
    (bad.Hidap.Layout_gen.viol.Slicing.Layout.am_deficit > 0.0);
  Alcotest.(check int) "no search for one block" 0 bad.Hidap.Layout_gen.sa_moves

let test_layout_gen_affinity_pulls_together () =
  (* 4 blocks; 0 and 3 strongly connected: they should end up closer than
     the average pair *)
  let budget = Rect.make ~x:0.0 ~y:0.0 ~w:20.0 ~h:20.0 in
  let mk i =
    { Hidap.Block.idx = i; ht_id = i; name = Printf.sprintf "b%d" i;
      curve = Shape.Curve.unconstrained; am = 100.0; at = 100.0; macro_count = 0 }
  in
  let blocks = Array.init 4 mk in
  let aff = Array.make_matrix 4 4 0.0 in
  aff.(0).(3) <- 1.0;
  aff.(3).(0) <- 1.0;
  let r =
    Hidap.Layout_gen.run ~rng:(Util.Rng.create 3) ~config:Hidap.Config.default ~blocks
      ~affinity:aff ~fixed_pos:[||] ~budget ()
  in
  let c i = Rect.center r.Hidap.Layout_gen.rects.(i) in
  let d03 = Point.manhattan (c 0) (c 3) in
  let dmax = 20.0 in
  Alcotest.(check bool) "connected pair is adjacent" true (d03 <= dmax /. 2.0)

(* ---- full flow ------------------------------------------------------ *)

let test_place_fig1_legal () =
  let r = Lazy.force fig1_placed in
  Alcotest.(check int) "all macros placed" 16 (List.length r.Hidap.placements);
  check_float "no overlap" 0.0 (Hidap.overlap_area r);
  Alcotest.(check bool) "inside the die" true (Hidap.placement_bbox_ok r)

let test_place_fig1_structure () =
  let r = Lazy.force fig1_placed in
  (* top level must be the Fig 1a structure: two 8-macro blocks *)
  (match r.Hidap.top with
  | None -> Alcotest.fail "no top snapshot"
  | Some top ->
    let macro_blocks =
      Array.to_list top.Hidap.Floorplan.inst_blocks
      |> List.filter (fun (b : Hidap.Block.t) -> b.Hidap.Block.macro_count > 0)
    in
    Alcotest.(check (list int)) "two 8-macro blocks" [ 8; 8 ]
      (List.map (fun (b : Hidap.Block.t) -> b.Hidap.Block.macro_count) macro_blocks));
  (* macros of the same subsystem stay together: max intra-subsystem
     distance should be below the die diagonal *)
  let flat = Lazy.force fig1_flat in
  let subsystem fid = List.hd (Util.Names.split_path flat.Flat.nodes.(fid).Flat.path) in
  let groups = Hashtbl.create 2 in
  List.iter
    (fun (p : Hidap.macro_placement) ->
      let key = subsystem p.Hidap.fid in
      Hashtbl.replace groups key
        (Rect.center p.Hidap.rect
        :: (try Hashtbl.find groups key with Not_found -> [])))
    r.Hidap.placements;
  Alcotest.(check int) "two subsystems" 2 (Hashtbl.length groups);
  Hashtbl.iter
    (fun _ pts ->
      let spread =
        List.fold_left
          (fun acc p -> List.fold_left (fun acc q -> max acc (Point.manhattan p q)) acc pts)
          0.0 pts
      in
      Alcotest.(check bool) "subsystem stays clustered" true
        (spread < 0.9 *. (r.Hidap.die.Rect.w +. r.Hidap.die.Rect.h)))
    groups

let test_place_deterministic () =
  let flat = Lazy.force fig1_flat in
  let r1 = Hidap.place flat and r2 = Hidap.place flat in
  List.iter2
    (fun (a : Hidap.macro_placement) (b : Hidap.macro_placement) ->
      Alcotest.(check int) "same macro" a.Hidap.fid b.Hidap.fid;
      Alcotest.(check bool) "same rect" true (Rect.equal a.Hidap.rect b.Hidap.rect);
      Alcotest.(check bool) "same orientation" true (a.Hidap.orient = b.Hidap.orient))
    r1.Hidap.placements r2.Hidap.placements

let test_place_lambda_changes_result () =
  (* On fig1 the optimizer is stable across seeds (the affinity-greedy
     start dominates), but the dataflow blend must matter: macro-flow-only
     and block-flow-only affinities give different layouts. *)
  let flat = Lazy.force fig1_flat in
  let r1 = Lazy.force fig1_placed in
  let r2 = Hidap.place ~config:(Hidap.Config.with_lambda Hidap.Config.default 0.0) flat in
  let rects r = List.map (fun (p : Hidap.macro_placement) -> p.Hidap.rect) r.Hidap.placements in
  Alcotest.(check bool) "lambda changes the layout" false (rects r1 = rects r2)

let test_place_levels_recorded () =
  let r = Lazy.force fig1_placed in
  let depths =
    List.map (fun (l : Hidap.Floorplan.level_info) -> l.Hidap.Floorplan.depth) r.Hidap.levels
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "multi-level recursion" true (List.length depths >= 2);
  (* every level rect sits inside the die *)
  List.iter
    (fun (l : Hidap.Floorplan.level_info) ->
      Alcotest.(check bool) "level rect inside die" true
        (Rect.contains_rect ~outer:r.Hidap.die ~inner:l.Hidap.Floorplan.rect))
    r.Hidap.levels

let test_place_sweep () =
  let flat = Lazy.force fig1_flat in
  (* objective: macro bbox area (cheap proxy) *)
  let objective (r : Hidap.result) =
    List.fold_left
      (fun acc (p : Hidap.macro_placement) -> acc +. Rect.area p.Hidap.rect)
      0.0 r.Hidap.placements
  in
  let sw = Hidap.place_sweep ~objective flat in
  let best = sw.Hidap.best in
  Alcotest.(check bool) "lambda from sweep" true
    (List.mem best.Hidap.lambda Hidap.Config.default.Hidap.Config.lambda_sweep);
  check_float "objective consistent" (objective best) sw.Hidap.best_objective;
  (* every λ of the sweep is recorded, losing runs included *)
  Alcotest.(check (list (float 0.0)))
    "sweep trace covers the whole sweep"
    Hidap.Config.default.Hidap.Config.lambda_sweep
    (List.map fst sw.Hidap.sweep_trace);
  List.iter
    (fun (_, o) ->
      Alcotest.(check bool) "best objective is minimal" true
        (sw.Hidap.best_objective <= o))
    sw.Hidap.sweep_trace

let test_place_sweep_parallel_deterministic () =
  (* The tentpole contract: a sweep fanned across worker domains is
     bit-identical to the sequential one for a fixed seed. *)
  let flat = Lazy.force fig1_flat in
  let objective (r : Hidap.result) =
    List.fold_left
      (fun acc (p : Hidap.macro_placement) ->
        acc +. Point.manhattan (Rect.center p.Hidap.rect) (Rect.center r.Hidap.die))
      0.0 r.Hidap.placements
  in
  let run jobs =
    Hidap.place_sweep
      ~config:{ Hidap.Config.default with Hidap.Config.jobs }
      ~objective flat
  in
  let s1 = run 1 and s2 = run 2 in
  Alcotest.(check (float 0.0)) "same best objective" s1.Hidap.best_objective
    s2.Hidap.best_objective;
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "same sweep trace" s1.Hidap.sweep_trace s2.Hidap.sweep_trace;
  Alcotest.(check (float 0.0)) "same best lambda" s1.Hidap.best.Hidap.lambda
    s2.Hidap.best.Hidap.lambda;
  List.iter2
    (fun (a : Hidap.macro_placement) (b : Hidap.macro_placement) ->
      Alcotest.(check int) "same macro" a.Hidap.fid b.Hidap.fid;
      Alcotest.(check bool) "bit-identical rect" true (a.Hidap.rect = b.Hidap.rect);
      Alcotest.(check bool) "same orientation" true (a.Hidap.orient = b.Hidap.orient))
    s1.Hidap.best.Hidap.placements s2.Hidap.best.Hidap.placements

(* ---- rotated-macro orientation -------------------------------------- *)

let test_oriented_fit () =
  let rect = Rect.make ~x:0.0 ~y:0.0 ~w:12.0 ~h:45.0 in
  (* upright 40x10 exceeds the 12-wide rect; rotated it fits exactly *)
  let w, h, o = Hidap.Floorplan.oriented_fit ~w:40.0 ~h:10.0 ~rect in
  check_float "rotated width" 10.0 w;
  check_float "rotated height" 40.0 h;
  Alcotest.(check bool) "reports R90" true (o = O.R90);
  (* an upright fit never rotates *)
  let w, h, o = Hidap.Floorplan.oriented_fit ~w:10.0 ~h:40.0 ~rect in
  check_float "upright width" 10.0 w;
  check_float "upright height" 40.0 h;
  Alcotest.(check bool) "keeps R0" true (o = O.R0);
  (* neither way fits: clamp to the rect at R0 *)
  let w, h, o = Hidap.Floorplan.oriented_fit ~w:50.0 ~h:50.0 ~rect in
  Alcotest.(check bool) "clamps at R0" true
    (o = O.R0 && w <= 12.0 +. 1e-9 && h <= 45.0 +. 1e-9)

let macro_dims flat fid =
  match flat.Flat.nodes.(fid).Flat.kind with
  | Flat.Kmacro info -> (info.Netlist.Design.mw, info.Netlist.Design.mh)
  | Flat.Kflop | Flat.Kcomb | Flat.Kport _ -> Alcotest.fail "not a macro"

(* Invariant: every placed rect's footprint is bounded by the macro's
   library dimensions under the reported orientation. *)
let check_orientation_consistent flat (r : Hidap.result) =
  List.iter
    (fun (p : Hidap.macro_placement) ->
      let mw, mh = macro_dims flat p.Hidap.fid in
      let ow, oh = O.apply_dims p.Hidap.orient ~w:mw ~h:mh in
      Alcotest.(check bool)
        (Printf.sprintf "macro %d footprint matches its orientation" p.Hidap.fid)
        true
        (p.Hidap.rect.Rect.w <= ow +. 1e-6 && p.Hidap.rect.Rect.h <= oh +. 1e-6))
    r.Hidap.placements

(* Two instances of a block holding one wide 40x6 macro, chained through
   top-level nets; placed into a die only 30 wide so the macros cannot
   stand upright. *)
let wide_macro_design () =
  let module D = Netlist.Design in
  let bits p = List.init 4 (fun i -> Printf.sprintf "%s_%d" p i) in
  let blockm name =
    let cells =
      D.cell ~name:"mem" ~kind:(D.make_macro ~w:40.0 ~h:6.0) ~ins:(bits "in")
        ~outs:(bits "q") ()
      :: List.init 4 (fun i ->
             D.cell ~name:(Printf.sprintf "ro_%d" i) ~kind:D.Flop
               ~ins:[ Printf.sprintf "q_%d" i ]
               ~outs:[ Printf.sprintf "out_%d" i ] ())
    in
    let ports =
      List.map (fun n -> D.port ~name:n ~dir:D.Input) (bits "in")
      @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bits "out")
    in
    D.module_def ~name ~ports ~cells ()
  in
  let top =
    D.module_def ~name:"top"
      ~ports:
        (List.map (fun n -> D.port ~name:n ~dir:D.Input) (bits "pin")
        @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bits "pout"))
      ~insts:
        [ D.inst ~name:"ba" ~module_:"blk"
            ~bindings:
              (List.map2 (fun f a -> (f, a)) (bits "in") (bits "pin")
              @ List.map2 (fun f a -> (f, a)) (bits "out") (bits "mid"));
          D.inst ~name:"bb" ~module_:"blk"
            ~bindings:
              (List.map2 (fun f a -> (f, a)) (bits "in") (bits "mid")
              @ List.map2 (fun f a -> (f, a)) (bits "out") (bits "pout")) ]
      ()
  in
  D.design ~top:"top" ~modules:[ top; blockm "blk" ]

let test_rotated_macro_orientation () =
  let flat = Flat.elaborate (wide_macro_design ()) in
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:30.0 ~h:200.0 in
  let r = Hidap.place ~die flat in
  Alcotest.(check int) "both macros placed" 2 (List.length r.Hidap.placements);
  Alcotest.(check bool) "inside the die" true (Hidap.placement_bbox_ok r);
  List.iter
    (fun (p : Hidap.macro_placement) ->
      Alcotest.(check bool) "orientation reports the forced rotation" true
        (O.swaps_dims p.Hidap.orient))
    r.Hidap.placements;
  check_orientation_consistent flat r

let test_fig1_orientation_consistent () =
  check_orientation_consistent (Lazy.force fig1_flat) (Lazy.force fig1_placed)

(* ---- flipping ------------------------------------------------------- *)

let test_pin_positions () =
  let rect = Rect.make ~x:10.0 ~y:20.0 ~w:4.0 ~h:2.0 in
  let p_in = Hidap.Flipping.pin_position ~rect ~orient:O.R0 ~dir:`In in
  Alcotest.(check bool) "R0 input on west face" true
    (Point.equal p_in (Point.make 10.0 21.0));
  let p_out = Hidap.Flipping.pin_position ~rect ~orient:O.R0 ~dir:`Out in
  Alcotest.(check bool) "R0 output on east face" true
    (Point.equal p_out (Point.make 14.0 21.0));
  let p_my = Hidap.Flipping.pin_position ~rect ~orient:O.MY ~dir:`In in
  Alcotest.(check bool) "MY swaps input to east" true
    (Point.equal p_my (Point.make 14.0 21.0))

let test_flipping_gain_nonnegative () =
  let r = Lazy.force fig1_placed in
  Alcotest.(check bool) "flip gain >= 0" true (r.Hidap.flip_gain >= -1e-9)

let suite =
  [ ( "hidap.config",
      [ Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "die sizing" `Quick test_die_for ] );
    ( "hidap.port_plan",
      [ Alcotest.test_case "boundary positions" `Quick test_port_plan;
        Alcotest.test_case "deterministic" `Quick test_port_plan_deterministic ] );
    ( "hidap.shape_curves",
      [ Alcotest.test_case "leaf curves" `Quick test_sgamma_leaves;
        Alcotest.test_case "packing quality" `Quick test_sgamma_packing_quality ] );
    ( "hidap.target_area",
      [ Alcotest.test_case "assignment" `Quick test_target_area;
        Alcotest.test_case "BFS early exit labels glue cells exactly" `Quick
          test_target_area_early_exit ] );
    ( "hidap.layout_gen",
      [ Alcotest.test_case "single block" `Quick test_layout_gen_single_block;
        Alcotest.test_case "single block penalized" `Quick
          test_layout_gen_single_block_penalized;
        Alcotest.test_case "affinity pulls together" `Quick
          test_layout_gen_affinity_pulls_together ] );
    ( "hidap.flow",
      [ Alcotest.test_case "fig1 legal" `Quick test_place_fig1_legal;
        Alcotest.test_case "fig1 structure" `Quick test_place_fig1_structure;
        Alcotest.test_case "deterministic" `Slow test_place_deterministic;
        Alcotest.test_case "lambda sensitivity" `Slow test_place_lambda_changes_result;
        Alcotest.test_case "levels recorded" `Quick test_place_levels_recorded;
        Alcotest.test_case "lambda sweep" `Slow test_place_sweep;
        Alcotest.test_case "parallel sweep deterministic" `Slow
          test_place_sweep_parallel_deterministic ] );
    ( "hidap.orientation",
      [ Alcotest.test_case "oriented fit" `Quick test_oriented_fit;
        Alcotest.test_case "forced rotation reported" `Quick
          test_rotated_macro_orientation;
        Alcotest.test_case "fig1 orientations consistent" `Quick
          test_fig1_orientation_consistent ] );
    ( "hidap.flipping",
      [ Alcotest.test_case "pin positions" `Quick test_pin_positions;
        Alcotest.test_case "gain non-negative" `Quick test_flipping_gain_nonnegative ] ) ]
