(* Tests for shape curves (paper §II-D / §IV-A). *)

module Curve = Shape.Curve

let check_float = Alcotest.(check (float 1e-9))

let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let points_arb =
  QCheck.(
    list_of_size (Gen.int_range 1 12)
      (pair (float_range 1.0 50.0) (float_range 1.0 50.0)))

let test_of_macro () =
  let c = Curve.of_macro ~w:6.0 ~h:4.0 () in
  Alcotest.(check int) "two orientations" 2 (Curve.size c);
  Alcotest.(check bool) "fits footprint" true (Curve.fits c ~w:6.0 ~h:4.0);
  Alcotest.(check bool) "fits rotated" true (Curve.fits c ~w:4.0 ~h:6.0);
  Alcotest.(check bool) "too small" false (Curve.fits c ~w:3.9 ~h:6.0);
  let sq = Curve.of_macro ~w:5.0 ~h:5.0 () in
  Alcotest.(check int) "square has one point" 1 (Curve.size sq);
  let norot = Curve.of_macro ~w:6.0 ~h:4.0 ~rotate:false () in
  Alcotest.(check int) "no rotation point" 1 (Curve.size norot)

let test_pareto_prunes_dominated () =
  let c = Curve.of_points [ (2.0, 2.0); (3.0, 3.0); (2.0, 3.0); (1.0, 4.0) ] in
  (* (3,3) and (2,3) are dominated by (2,2) *)
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "staircase"
    [ (1.0, 4.0); (2.0, 2.0) ] (Curve.points c)

let test_of_points_invalid () =
  Alcotest.(check bool) "rejects empty" true
    (match Curve.of_points [] with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "rejects non-positive" true
    (match Curve.of_points [ (0.0, 3.0) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_unconstrained () =
  let u = Curve.unconstrained in
  Alcotest.(check bool) "is unconstrained" true (Curve.is_unconstrained u);
  Alcotest.(check bool) "fits anything" true (Curve.fits u ~w:0.001 ~h:0.001);
  check_float "min area zero" 0.0 (Curve.min_area u);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "no min point" None
    (Curve.min_area_point u);
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "no points" [] (Curve.points u)

let test_min_height_width () =
  let c = Curve.of_points [ (2.0, 6.0); (4.0, 3.0); (8.0, 1.0) ] in
  Alcotest.(check (option (float 1e-9))) "min height at w=4" (Some 3.0) (Curve.min_height c ~w:4.0);
  Alcotest.(check (option (float 1e-9))) "min height at w=5" (Some 3.0) (Curve.min_height c ~w:5.0);
  Alcotest.(check (option (float 1e-9))) "min height at w=1.9" None (Curve.min_height c ~w:1.9);
  Alcotest.(check (option (float 1e-9))) "min width at h=3" (Some 4.0) (Curve.min_width c ~h:3.0);
  Alcotest.(check (option (float 1e-9))) "min width below all" None (Curve.min_width c ~h:0.5)

let test_compose_dims () =
  let a = Curve.of_points [ (2.0, 3.0) ] and b = Curve.of_points [ (4.0, 1.0) ] in
  (match Curve.points (Curve.compose_h a b) with
  | [ (w, h) ] ->
    check_float "widths add" 6.0 w;
    check_float "heights max" 3.0 h
  | _ -> Alcotest.fail "expected one point");
  match Curve.points (Curve.compose_v a b) with
  | [ (w, h) ] ->
    check_float "widths max" 4.0 w;
    check_float "heights add" 4.0 h
  | _ -> Alcotest.fail "expected one point"

let test_compose_with_unconstrained () =
  let a = Curve.of_points [ (2.0, 3.0) ] in
  Alcotest.(check bool) "h compose" true
    (Curve.points (Curve.compose_h a Curve.unconstrained) = Curve.points a);
  Alcotest.(check bool) "v compose" true
    (Curve.points (Curve.compose_v Curve.unconstrained a) = Curve.points a);
  Alcotest.(check bool) "both unconstrained" true
    (Curve.is_unconstrained (Curve.compose_best Curve.unconstrained Curve.unconstrained))

let test_prune () =
  let pts = List.init 20 (fun i -> (float_of_int (i + 1), float_of_int (21 - i))) in
  let c = Curve.of_points pts in
  let p = Curve.prune ~max_points:5 c in
  Alcotest.(check int) "pruned size" 5 (Curve.size p);
  (* extremes kept *)
  let ppts = Curve.points p in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "first kept" (1.0, 21.0) (List.hd ppts);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "last kept" (20.0, 2.0)
    (List.nth ppts (List.length ppts - 1))

let staircase_invariant =
  qtest "points form a strict staircase" points_arb (fun pts ->
      match Curve.of_points pts with
      | exception Invalid_argument _ -> true
      | c ->
        let rec check = function
          | (w1, h1) :: ((w2, h2) :: _ as rest) -> w1 < w2 && h1 > h2 && check rest
          | _ -> true
        in
        check (Curve.points c))

let min_area_point_fits =
  qtest "curve fits its min-area point" points_arb (fun pts ->
      match Curve.of_points pts with
      | exception Invalid_argument _ -> true
      | c ->
        (match Curve.min_area_point c with
        | Some (w, h) -> Curve.fits c ~w ~h
        | None -> false))

let compose_min_area_superadditive =
  qtest "composition min area >= sum of parts"
    QCheck.(pair points_arb points_arb)
    (fun (pa, pb) ->
      match (Curve.of_points pa, Curve.of_points pb) with
      | exception Invalid_argument _ -> true
      | a, b ->
        let sum = Curve.min_area a +. Curve.min_area b in
        Curve.min_area (Curve.compose_h a b) >= sum -. 1e-6
        && Curve.min_area (Curve.compose_v a b) >= sum -. 1e-6
        && Curve.min_area (Curve.compose_best a b) >= sum -. 1e-6)

let compose_best_at_least_as_good =
  qtest "compose_best min area <= each composition"
    QCheck.(pair points_arb points_arb)
    (fun (pa, pb) ->
      match (Curve.of_points pa, Curve.of_points pb) with
      | exception Invalid_argument _ -> true
      | a, b ->
        let best = Curve.min_area (Curve.compose_best a b) in
        best <= Curve.min_area (Curve.compose_h a b) +. 1e-6
        && best <= Curve.min_area (Curve.compose_v a b) +. 1e-6)

let fits_monotone =
  qtest "fits is monotone in the box" points_arb (fun pts ->
      match Curve.of_points pts with
      | exception Invalid_argument _ -> true
      | c ->
        List.for_all
          (fun (w, h) -> Curve.fits c ~w:(w +. 1.0) ~h:(h +. 1.0))
          (Curve.points c))

let prune_conservative =
  qtest "pruned curve only keeps feasible boxes" points_arb (fun pts ->
      match Curve.of_points pts with
      | exception Invalid_argument _ -> true
      | c ->
        let p = Curve.prune ~max_points:4 c in
        List.for_all (fun (w, h) -> Curve.fits c ~w ~h) (Curve.points p))

(* The merge-walk compositions must be bit for bit the Pareto frontier
   of the full cartesian product they replaced (DESIGN.md section 14
   leans on this for SA determinism): same floats, same order. *)
let compose_matches_cartesian =
  let cartesian f a b =
    let pts = ref [] in
    List.iter
      (fun p1 -> List.iter (fun p2 -> pts := f p1 p2 :: !pts) (Curve.points b))
      (Curve.points a);
    Curve.of_points !pts
  in
  qtest "merge compose = cartesian pareto, bitwise"
    QCheck.(pair points_arb points_arb)
    (fun (pa, pb) ->
      match (Curve.of_points pa, Curve.of_points pb) with
      | exception Invalid_argument _ -> true
      | a, b ->
        let beq_pts c c' =
          List.for_all2
            (fun (w, h) (w', h') ->
              Int64.bits_of_float w = Int64.bits_of_float w'
              && Int64.bits_of_float h = Int64.bits_of_float h')
            (Curve.points c) (Curve.points c')
        in
        let same f g =
          let m = f a b and c = cartesian g a b in
          Curve.size m = Curve.size c && beq_pts m c
        in
        same Curve.compose_h (fun (w1, h1) (w2, h2) -> (w1 +. w2, max h1 h2))
        && same Curve.compose_v (fun (w1, h1) (w2, h2) -> (max w1 w2, h1 +. h2)))

(* ---- unboxed curves and buffers ---------------------------------------- *)

let beq_points c c' =
  let a = Curve.points c and b = Curve.points c' in
  List.length a = List.length b
  && List.for_all2
       (fun (w, h) (w', h') ->
         Int64.bits_of_float w = Int64.bits_of_float w'
         && Int64.bits_of_float h = Int64.bits_of_float h')
       a b

(* Staircases as the SA builds them: compositions of random curves. With
   [ties], one side's widths sit near 2^56, where neighbouring floats are
   16 apart, so [w1 +. w2] rounds nearby sums to the same width and the
   staircase carries runs of equal-width points. *)
let staircase_arb =
  let side =
    QCheck.(
      list_of_size (Gen.int_range 4 30)
        (pair (float_range 1.0 50.0) (float_range 1.0 50.0)))
  in
  QCheck.(triple (pair side side) bool (pair bool (int_range 2 12)))

let build_staircase ((pa, pb), ties, (vertical, max_points)) =
  let big = if ties then 72057594037927936.0 else 0.0 in
  (* The fixed point keeps both sides non-empty when QCheck shrinks. *)
  let a = Curve.of_points ((10.0, 10.0) :: pa) in
  let b = Curve.of_points (List.map (fun (w, h) -> (w +. big, h)) ((10.0, 10.0) :: pb)) in
  let c = if vertical then Curve.compose_v a b else Curve.compose_h a b in
  (c, max_points)

(* [prune]'s linear pass against the formulation it replaced: sample
   the staircase, then [of_points] (filter + sort + scan). *)
let prune_matches_pareto =
  let reference ~max_points c =
    if Curve.size c <= max_points then c
    else begin
      let a = Array.of_list (Curve.points c) in
      let n = Array.length a in
      Curve.of_points (List.init max_points (fun i -> a.(i * (n - 1) / (max_points - 1))))
    end
  in
  qtest ~count:500 "prune = sample + of_points, bitwise (equal-width ties included)"
    staircase_arb (fun arg ->
      let c, max_points = build_staircase arg in
      beq_points (Curve.prune ~max_points c) (reference ~max_points c))

(* The ties the property above is after do occur: some generated
   staircase has equal widths. *)
let test_ties_generated () =
  let rng = Random.State.make [| 7 |] in
  let has_tie c =
    let rec go = function
      | (w1, _) :: ((w2, _) :: _ as rest) -> w1 = w2 || go rest
      | _ -> false
    in
    go (Curve.points c)
  in
  let found = ref false in
  for _ = 1 to 200 do
    let pab, _, rest = QCheck.Gen.generate1 ~rand:rng (QCheck.gen staircase_arb) in
    let c, _ = build_staircase (pab, true, rest) in
    if has_tie c then found := true
  done;
  Alcotest.(check bool) "an equal-width staircase was generated" true !found

(* Composing into a reused buffer gives the allocating composition's
   points, whatever the buffer held before; pruning in place gives
   [prune]'s. *)
let buffer_compose_matches =
  qtest ~count:300 "compose/prune into a buffer = allocating compose/prune, bitwise"
    QCheck.(list_of_size (Gen.int_range 1 6) (triple points_arb points_arb (int_range 0 3)))
    (fun cases ->
      let buf = Curve.buffer ~capacity:23 in
      List.for_all
        (fun (pa, pb, kind) ->
          let a = if kind = 3 then Curve.unconstrained else Curve.of_points pa in
          let b = Curve.of_points pb in
          let max_points = 2 + (List.length pa mod 5) in
          let check compose compose_into =
            compose_into buf a b;
            let same = beq_points (Curve.view buf) (compose a b) in
            Curve.prune_in_place ~max_points buf;
            same && beq_points (Curve.view buf) (Curve.prune ~max_points (compose a b))
          in
          check Curve.compose_h Curve.compose_h_into
          && check Curve.compose_v Curve.compose_v_into)
        cases)

let test_buffer_capacity () =
  let a = Curve.of_points [ (1.0, 4.0); (2.0, 2.0) ]
  and b = Curve.of_points [ (1.5, 3.0); (3.0, 1.0) ] in
  let small = Curve.buffer ~capacity:2 in
  Alcotest.(check bool) "too small a buffer is rejected" true
    (match Curve.compose_h_into small a b with
    | exception Invalid_argument _ -> true
    | () -> false);
  let fits = Curve.buffer ~capacity:3 in
  Curve.compose_v_into fits a b;
  Alcotest.(check bool) "n1 + n2 - 1 points fit" true
    (beq_points (Curve.view fits) (Curve.compose_v a b));
  Curve.compose_h_into fits Curve.unconstrained Curve.unconstrained;
  Alcotest.(check bool) "both unconstrained" true
    (Curve.is_unconstrained (Curve.view fits))

let suite =
  [ ( "shape.curve",
      [ Alcotest.test_case "of_macro" `Quick test_of_macro;
        Alcotest.test_case "pareto pruning" `Quick test_pareto_prunes_dominated;
        Alcotest.test_case "invalid inputs" `Quick test_of_points_invalid;
        Alcotest.test_case "unconstrained" `Quick test_unconstrained;
        Alcotest.test_case "min height/width" `Quick test_min_height_width;
        Alcotest.test_case "compose dims" `Quick test_compose_dims;
        Alcotest.test_case "compose with unconstrained" `Quick
          test_compose_with_unconstrained;
        Alcotest.test_case "prune" `Quick test_prune;
        staircase_invariant; min_area_point_fits; compose_min_area_superadditive;
        compose_best_at_least_as_good; fits_monotone; prune_conservative;
        compose_matches_cartesian; prune_matches_pareto;
        Alcotest.test_case "equal-width staircases occur" `Quick test_ties_generated;
        buffer_compose_matches;
        Alcotest.test_case "buffer capacity" `Quick test_buffer_capacity ] ) ]
