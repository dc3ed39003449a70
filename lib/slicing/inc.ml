(* Incremental slicing-tree evaluation.

   [Layout.evaluate] rebuilds the whole tree and re-derives every shape
   curve and rectangle for each proposed SA move, although an M1/M2/M3
   perturbation only changes a bounded region of the Polish expression.
   This module keeps one flat, preallocated evaluation state per
   annealing start and, on each call, diffs the new expression against
   the last one it evaluated: only nodes whose postfix span contains a
   changed position re-derive their curve/area sums, and only subtrees
   whose assigned rectangle actually changed re-place their leaves.

   Bit-identity with [Layout.evaluate] (the DESIGN.md section 14
   determinism argument, asserted by the incremental property suite and
   by [Layout_gen.run]'s once-per-instance cost check) rests on three
   facts:

   - A node whose span is unchanged and whose assigned rectangle equals
     the previous evaluation's is a pure function of unchanged inputs:
     every cached value below it (curves, rects, centers, violation
     contributions) is the value the full evaluation would recompute.
   - Violation totals are NOT resumed from per-subtree subtotals (float
     addition is not associative). Instead the elementary per-node
     contributions are cached and re-folded over the whole tree in the
     exact preorder and field order [Layout.evaluate] uses; recomputed
     nodes contribute bitwise-identical terms, so the folded sums are
     bitwise identical. Skipping the [+. 0.0] terms the full path adds
     for absent fields is exact: the accumulators are non-negative and
     [x +. 0.0 = x] for every non-negative float.
   - The caller's wirelength fold works the same way on the per-pair
     contribution array (see [Layout_gen]).

   The diff is taken against the last EVALUATED expression, not the
   annealer's accepted state, so rejected moves need no hook into the
   SA loop: the next candidate simply diffs as "reverted window plus
   new window". *)

module Curve = Shape.Curve
module Rect = Geom.Rect

type t = {
  table : Layout.leaf array;   (* lid -> leaf, validated by [Layout.leaf_table] *)
  budget : Rect.t;
  len : int;                   (* expression length: 2 * n_blocks - 1 *)
  prev : Polish.elt array;     (* the last-evaluated expression's elements *)
  mutable warm : bool;         (* caches consistent with [prev]? *)
  cp : int array;              (* changed-position prefix counts, len + 1 *)
  (* Structure of the current expression, rebuilt every evaluation
     (integer-only stack pass; the float work is what gets skipped). *)
  span_lo : int array;         (* lowest postfix index of node k's subtree *)
  left : int array;            (* child node ids; -1 marks an operand *)
  right : int array;
  lid : int array;             (* operand positions: the block id *)
  stack : int array;
  (* Bottom-up node data, cached across evaluations. *)
  nd_curve : Curve.t array;
  nd_am : float array;
  nd_at : float array;
  (* The rectangle assigned to each node by the last evaluation. *)
  rx : float array;
  ry : float array;
  rw : float array;
  rh : float array;
  (* Elementary violation contributions per node, in the order
     [Layout.evaluate] adds them: [c_def] is the children's
     macro_min_extent deficit sum (or the fit deficit for a leaf),
     [c_at]/[c_am]/[c_mac] the split_extent delta. *)
  c_def : float array;
  c_at : float array;
  c_am : float array;
  c_mac : float array;
  (* Outputs, indexed by lid. *)
  out_rect : Rect.t array;
  out_cx : float array;
  out_cy : float array;
  moved : int array;           (* lids whose center changed this evaluation *)
  mutable n_moved : int;
  mutable full : bool;         (* cold evaluation: treat every lid as moved *)
  (* Violation accumulators; hold the last evaluation's totals between
     calls so an unchanged expression returns without re-folding. *)
  mutable v_at : float;
  mutable v_am : float;
  mutable v_mac : float;
}

let create ~table ~budget =
  let n = Array.length table in
  assert (n >= 1);
  let len = (2 * n) - 1 in
  let c = Rect.center budget in
  { table;
    budget;
    len;
    prev = Array.make len (Polish.Operand 0);
    warm = false;
    cp = Array.make (len + 1) 0;
    span_lo = Array.make len 0;
    left = Array.make len (-1);
    right = Array.make len (-1);
    lid = Array.make len (-1);
    stack = Array.make len 0;
    nd_curve = Array.make len Curve.unconstrained;
    nd_am = Array.make len 0.0;
    nd_at = Array.make len 0.0;
    rx = Array.make len nan;
    ry = Array.make len nan;
    rw = Array.make len nan;
    rh = Array.make len nan;
    c_def = Array.make len 0.0;
    c_at = Array.make len 0.0;
    c_am = Array.make len 0.0;
    c_mac = Array.make len 0.0;
    out_rect = Array.make n budget;
    out_cx = Array.make n c.Geom.Point.x;
    out_cy = Array.make n c.Geom.Point.y;
    moved = Array.make n 0;
    n_moved = 0;
    full = true;
    v_at = 0.0;
    v_am = 0.0;
    v_mac = 0.0 }

(* Accessors for the caller's wirelength update. [moved]/[n_moved] list
   the lids whose center changed in the last [evaluate]; when [full] is
   set the list is not meaningful and every pair must be recomputed. *)
let full t = t.full
let moved t = t.moved
let n_moved t = t.n_moved
let centers_x t = t.out_cx
let centers_y t = t.out_cy
let rects t = t.out_rect

let violations t =
  { Layout.at_shift = t.v_at; am_deficit = t.v_am; macro_deficit = t.v_mac }

(* Re-add a clean subtree's cached contributions in the preorder the
   full evaluation visits them: node first, then left, then right. *)
let rec fold_cached t k =
  let l = t.left.(k) in
  if l < 0 then t.v_mac <- t.v_mac +. t.c_def.(k)
  else begin
    t.v_mac <- t.v_mac +. t.c_def.(k);
    t.v_at <- t.v_at +. t.c_at.(k);
    t.v_am <- t.v_am +. t.c_am.(k);
    t.v_mac <- t.v_mac +. t.c_mac.(k);
    fold_cached t l;
    fold_cached t t.right.(k)
  end

(* Place node [k] into (x, y, w, h), mirroring [Layout.evaluate]'s
   recursion operation for operation on the recompute path. [may_skip]
   is true when the caches are consistent (warm state). *)
let rec place t ~may_skip k x y w h =
  if
    may_skip
    && t.cp.(k + 1) - t.cp.(t.span_lo.(k)) = 0
    && t.rx.(k) = x && t.ry.(k) = y && t.rw.(k) = w && t.rh.(k) = h
  then fold_cached t k
  else begin
    t.rx.(k) <- x;
    t.ry.(k) <- y;
    t.rw.(k) <- w;
    t.rh.(k) <- h;
    let l = t.left.(k) in
    if l < 0 then begin
      let i = t.lid.(k) in
      let leaf = t.table.(i) in
      let deficit =
        if Curve.fits leaf.Layout.curve ~w ~h then 0.0
        else begin
          match Curve.min_area_point leaf.Layout.curve with
          | None -> 0.0
          | Some (cw, ch) ->
            let need = min ((cw -. w) *. ch) ((ch -. h) *. cw) in
            let need = if need <= 0.0 then abs_float need else need in
            max 1e-9 need
        end
      in
      t.c_def.(k) <- deficit;
      t.v_mac <- t.v_mac +. deficit;
      t.out_rect.(i) <- { Rect.x; y; w; h };
      (* Same float expressions as [Rect.center]. *)
      let cx = x +. (w /. 2.0) and cy = y +. (h /. 2.0) in
      if not (cx = t.out_cx.(i) && cy = t.out_cy.(i)) then begin
        t.out_cx.(i) <- cx;
        t.out_cy.(i) <- cy;
        t.moved.(t.n_moved) <- i;
        t.n_moved <- t.n_moved + 1
      end
    end
    else begin
      let r = t.right.(k) in
      let op =
        match t.prev.(k) with
        | Polish.Operator o -> o
        | Polish.Operand _ -> assert false
      in
      let extent, cross =
        match op with Polish.V -> (w, h) | Polish.H -> (h, w)
      in
      let axis = match op with Polish.V -> `Width | Polish.H -> `Height in
      let mac_a, def_a = Layout.macro_min_extent t.nd_curve.(l) ~cross ~axis in
      let mac_b, def_b = Layout.macro_min_extent t.nd_curve.(r) ~cross ~axis in
      let def_sum = def_a +. def_b in
      t.c_def.(k) <- def_sum;
      t.v_mac <- t.v_mac +. def_sum;
      let s, dv =
        Layout.split_extent ~extent ~cross ~at_a:t.nd_at.(l) ~at_b:t.nd_at.(r)
          ~am_a:t.nd_am.(l) ~am_b:t.nd_am.(r) ~mac_min_a:mac_a ~mac_min_b:mac_b
      in
      t.c_at.(k) <- dv.Layout.at_shift;
      t.c_am.(k) <- dv.Layout.am_deficit;
      t.c_mac.(k) <- dv.Layout.macro_deficit;
      t.v_at <- t.v_at +. dv.Layout.at_shift;
      t.v_am <- t.v_am +. dv.Layout.am_deficit;
      t.v_mac <- t.v_mac +. dv.Layout.macro_deficit;
      let frac = if extent > 0.0 then s /. extent else 0.5 in
      let frac = Util.Stat.clamp ~lo:0.0 ~hi:1.0 frac in
      (* Child rects exactly as [Rect.split_v]/[split_h] derive them. *)
      match op with
      | Polish.V ->
        let wl = w *. frac in
        place t ~may_skip l x y wl h;
        place t ~may_skip r (x +. wl) y (w -. wl) h
      | Polish.H ->
        let hb = h *. frac in
        place t ~may_skip l x y w hb;
        place t ~may_skip r x (y +. hb) w (h -. hb)
    end
  end

(* Evaluate [expr], reusing everything the diff against the previous
   evaluation allows. Returns the violation totals; rects and centers
   are read through the accessors (valid until the next call). *)
let evaluate t (expr : Polish.t) =
  if Polish.length expr <> t.len then
    invalid_arg "Inc.evaluate: expression length changed";
  let was_warm = t.warm in
  (* Phase 0: diff against the last-evaluated elements and take
     ownership of the new ones. Prefix counts make "any change in span
     [a, k]?" an O(1) query. *)
  let changed = ref 0 in
  for k = 0 to t.len - 1 do
    let ek = Polish.get expr k in
    let same =
      was_warm
      &&
      match (t.prev.(k), ek) with
      | Polish.Operand a, Polish.Operand b -> a = b
      | Polish.Operator a, Polish.Operator b -> a = b
      | Polish.Operand _, Polish.Operator _ | Polish.Operator _, Polish.Operand _ ->
        false
    in
    if not same then begin
      t.prev.(k) <- ek;
      incr changed
    end;
    t.cp.(k + 1) <- !changed
  done;
  if was_warm && !changed = 0 then begin
    (* Identical expression (e.g. a no-op perturbation): every cached
       output and the held violation totals are the answer. *)
    t.n_moved <- 0;
    t.full <- false;
    violations t
  end
  else begin
    (* An exception below (diagnostic, injected fault) can leave the
       caches half-updated; drop them until an evaluation completes. *)
    t.warm <- false;
    (* Phase 1: structure + bottom-up curves/areas. The stack pass is
       integer work for every node; curve composition (the expensive,
       allocating part) only runs for nodes whose span changed. *)
    let sp = ref 0 in
    for k = 0 to t.len - 1 do
      match t.prev.(k) with
      | Polish.Operand i ->
        t.span_lo.(k) <- k;
        t.left.(k) <- -1;
        t.lid.(k) <- i;
        if not was_warm || t.cp.(k + 1) - t.cp.(k) > 0 then begin
          let leaf = Layout.leaf_of_table t.table i in
          t.nd_curve.(k) <- leaf.Layout.curve;
          t.nd_am.(k) <- leaf.Layout.area_min;
          t.nd_at.(k) <- leaf.Layout.area_target
        end;
        t.stack.(!sp) <- k;
        incr sp
      | Polish.Operator op ->
        if !sp < 2 then invalid_arg "Layout.evaluate: malformed expression";
        let r = t.stack.(!sp - 1) and l = t.stack.(!sp - 2) in
        sp := !sp - 2;
        t.span_lo.(k) <- t.span_lo.(l);
        t.left.(k) <- l;
        t.right.(k) <- r;
        if not was_warm || t.cp.(k + 1) - t.cp.(t.span_lo.(k)) > 0 then begin
          let curve =
            let c =
              match op with
              | Polish.V -> Curve.compose_h t.nd_curve.(l) t.nd_curve.(r)
              | Polish.H -> Curve.compose_v t.nd_curve.(l) t.nd_curve.(r)
            in
            if Curve.is_unconstrained c then c
            else Curve.prune ~max_points:Layout.max_curve_points c
          in
          t.nd_curve.(k) <- curve;
          t.nd_am.(k) <- t.nd_am.(l) +. t.nd_am.(r);
          t.nd_at.(k) <- t.nd_at.(l) +. t.nd_at.(r)
        end;
        t.stack.(!sp) <- k;
        incr sp
    done;
    if !sp <> 1 then invalid_arg "Layout.evaluate: malformed expression";
    (* Phase 2+3: top-down placement with subtree reuse, folding the
       violation contributions in evaluation order as it goes. *)
    t.v_at <- 0.0;
    t.v_am <- 0.0;
    t.v_mac <- 0.0;
    t.n_moved <- 0;
    t.full <- not was_warm;
    let b = t.budget in
    place t ~may_skip:was_warm (t.len - 1) b.Rect.x b.Rect.y b.Rect.w b.Rect.h;
    t.warm <- true;
    violations t
  end
