(* SA inner-loop kernels, timed on the leaves of one real floorplan
   instance (the top-level instance of a placed design).

   A seeded chain of [moves] Polish perturbations is generated, then each
   kernel is timed over the whole chain; [samples] repetitions give a
   median and a median absolute deviation, in nanoseconds per call. *)

module Polish = Slicing.Polish
module Layout = Slicing.Layout
module Curve = Shape.Curve

let moves = 4000
let samples = 9

let names =
  [ "polish.perturb_ns"; "shape.compose_ns"; "slicing.evaluate_ns"; "slicing.inc_evaluate_ns";
    "layout_gen.eval_expr_ns" ]

type result = (string * float * float) list  (** name, median ns, MAD ns *)

(* Bottom-up curve composition along [expr], pruned as the evaluator
   prunes; returns the number of compositions. *)
let compose_all expr ~(table : Layout.leaf array) =
  let stack = ref [] and n = ref 0 in
  for i = 0 to Polish.length expr - 1 do
    match Polish.get expr i with
    | Polish.Operand lid -> stack := table.(lid).Layout.curve :: !stack
    | Polish.Operator op -> (
      match !stack with
      | r :: l :: rest ->
        let c = match op with Polish.V -> Curve.compose_h l r | Polish.H -> Curve.compose_v l r in
        let c =
          if Curve.is_unconstrained c then c
          else Curve.prune ~max_points:Layout.max_curve_points c
        in
        incr n;
        stack := c :: rest
      | _ -> invalid_arg "compose_all: malformed expression")
  done;
  !n

let time_ns ~calls f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (max 1 calls)

let run ~seed ~config ~die (snap : Hidap.Floorplan.instance_snapshot) : result =
  let blocks = snap.Hidap.Floorplan.inst_blocks in
  let n = Array.length blocks in
  if n < 2 then []
  else begin
    let leaves = Array.map Hidap.Block.to_leaf blocks in
    let table = Layout.leaf_table leaves in
    let n_fixed = Array.length snap.Hidap.Floorplan.inst_fixed_names in
    (* Fixed endpoint positions are not part of the snapshot; the die
       centre stands in. It changes the costs, not the work. *)
    let fixed_pos = Array.make n_fixed (Geom.Rect.center die) in
    let affinity = snap.Hidap.Floorplan.inst_affinity in
    let rng = Util.Rng.create seed in
    let chain = Array.make moves (Polish.initial ~n) in
    let series = Hashtbl.create 8 in
    let add name v =
      Hashtbl.replace series name (v :: Option.value (Hashtbl.find_opt series name) ~default:[])
    in
    let composes = ref 0 in
    for _ = 1 to samples do
      add "polish.perturb_ns"
        (time_ns ~calls:(moves - 1) (fun () ->
             for i = 1 to moves - 1 do
               chain.(i) <- Polish.perturb rng chain.(i - 1)
             done));
      add "shape.compose_ns"
        (let t0 = Unix.gettimeofday () in
         composes := 0;
         Array.iter (fun e -> composes := !composes + compose_all e ~table) chain;
         (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (max 1 !composes));
      add "slicing.evaluate_ns"
        (time_ns ~calls:moves (fun () ->
             Array.iter (fun e -> ignore (Layout.evaluate e ~leaves ~budget:die)) chain));
      add "slicing.inc_evaluate_ns"
        (let inc = Slicing.Inc.create ~table ~budget:die in
         time_ns ~calls:moves (fun () ->
             Array.iter (fun e -> ignore (Slicing.Inc.evaluate inc e)) chain));
      add "layout_gen.eval_expr_ns"
        (time_ns ~calls:moves (fun () ->
             Array.iter
               (fun e ->
                 ignore
                   (Hidap.Layout_gen.eval_expr ~config ~blocks ~affinity ~fixed_pos ~budget:die e))
               chain));
      chain.(0) <- chain.(moves - 1)
    done;
    List.map
      (fun name ->
        let l = Option.value (Hashtbl.find_opt series name) ~default:[] in
        (name, Stats.median l, Stats.mad l))
      names
  end
