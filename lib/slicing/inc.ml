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

(* The float registers of one evaluation. An all-float record is stored
   flat, so updating a field boxes nothing (a float field of [t] itself
   would be boxed, allocating on every update). *)
type regs = {
  (* Violation accumulators; hold the last evaluation's totals between
     calls so an unchanged expression returns without re-folding. *)
  mutable v_at : float;
  mutable v_am : float;
  mutable v_mac : float;
  (* The rectangle a parent hands to [visit] for one child. *)
  mutable x : float;
  mutable y : float;
  mutable w : float;
  mutable h : float;
}

(* No SA move allocates here once the state is warm (DESIGN.md section
   14): curves are composed into one preallocated buffer per expression
   position, node rectangles and all float intermediates live in flat
   arrays and float-only records, and leaf [Rect.t] records are only
   built when [rects] is read. *)
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
  (* Bottom-up node data, cached across evaluations. An operand's curve
     is its leaf's; an operator's is a view of its own buffer. *)
  nd_buf : Curve.buf array;
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
  wk : Layout.work;
  regs : regs;
  (* Outputs, indexed by lid. *)
  leaf_node : int array;       (* the node holding the lid's rectangle *)
  out_cx : float array;
  out_cy : float array;
  moved : int array;           (* lids whose center changed this evaluation *)
  mutable n_moved : int;
  mutable full : bool;         (* cold evaluation: treat every lid as moved *)
}

let create ~table ~budget =
  let n = Array.length table in
  assert (n >= 1);
  let len = (2 * n) - 1 in
  let c = Rect.center budget in
  (* An operator's children hold a leaf curve or a pruned composition,
     so a buffer of twice the larger bound minus one holds any merge
     before it is pruned back in place. *)
  let child_points =
    Array.fold_left
      (fun acc (l : Layout.leaf) -> Int.max acc (Curve.size l.Layout.curve))
      Layout.max_curve_points table
  in
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
    nd_buf = Array.init len (fun _ -> Curve.buffer ~capacity:((2 * child_points) - 1));
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
    wk = Layout.work ();
    regs = { v_at = 0.0; v_am = 0.0; v_mac = 0.0; x = 0.0; y = 0.0; w = 0.0; h = 0.0 };
    leaf_node = Array.make n (-1);
    out_cx = Array.make n c.Geom.Point.x;
    out_cy = Array.make n c.Geom.Point.y;
    moved = Array.make n 0;
    n_moved = 0;
    full = true }

(* Accessors for the caller's wirelength update. [moved]/[n_moved] list
   the lids whose center changed in the last [evaluate]; when [full] is
   set the list is not meaningful and every pair must be recomputed. *)
let full t = t.full
let moved t = t.moved
let n_moved t = t.n_moved
let centers_x t = t.out_cx
let centers_y t = t.out_cy

let rects t =
  Array.map
    (fun k ->
      if k < 0 then t.budget else { Rect.x = t.rx.(k); y = t.ry.(k); w = t.rw.(k); h = t.rh.(k) })
    t.leaf_node

let violations t =
  let g = t.regs in
  { Layout.at_shift = g.v_at; am_deficit = g.v_am; macro_deficit = g.v_mac }

(* Re-add a clean subtree's cached contributions in the preorder the
   full evaluation visits them: node first, then left, then right. *)
let rec fold_cached t k =
  let g = t.regs and l = t.left.(k) in
  if l < 0 then g.v_mac <- g.v_mac +. t.c_def.(k)
  else begin
    g.v_mac <- g.v_mac +. t.c_def.(k);
    g.v_at <- g.v_at +. t.c_at.(k);
    g.v_am <- g.v_am +. t.c_am.(k);
    g.v_mac <- g.v_mac +. t.c_mac.(k);
    fold_cached t l;
    fold_cached t t.right.(k)
  end

(* Lay node [k] out in the rectangle its parent left in [t.regs]:
   re-fold its cached contributions when the caches are consistent
   ([may_skip]), its span is unchanged and the rectangle equals the last
   evaluation's; otherwise record the rectangle and [place] it. *)
let rec visit t ~may_skip k =
  let g = t.regs in
  if
    may_skip
    && t.cp.(k + 1) - t.cp.(t.span_lo.(k)) = 0
    && t.rx.(k) = g.x && t.ry.(k) = g.y && t.rw.(k) = g.w && t.rh.(k) = g.h
  then fold_cached t k
  else begin
    t.rx.(k) <- g.x;
    t.ry.(k) <- g.y;
    t.rw.(k) <- g.w;
    t.rh.(k) <- g.h;
    place t ~may_skip k
  end

(* Place node [k] into its recorded rectangle, mirroring
   [Layout.evaluate]'s recursion operation for operation. *)
and place t ~may_skip k =
  let g = t.regs and wk = t.wk in
  let x = t.rx.(k) and y = t.ry.(k) and w = t.rw.(k) and h = t.rh.(k) in
  wk.Layout.w <- w;
  wk.Layout.h <- h;
  let l = t.left.(k) in
  if l < 0 then begin
    let i = t.lid.(k) in
    Layout.leaf_fit wk t.nd_curve.(k);
    let deficit = wk.Layout.fit_def in
    t.c_def.(k) <- deficit;
    g.v_mac <- g.v_mac +. deficit;
    t.leaf_node.(i) <- k;
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
    wk.Layout.at_a <- t.nd_at.(l);
    wk.Layout.at_b <- t.nd_at.(r);
    wk.Layout.am_a <- t.nd_am.(l);
    wk.Layout.am_b <- t.nd_am.(r);
    Layout.split_node wk op t.nd_curve.(l) t.nd_curve.(r);
    let def_sum = wk.Layout.def_a +. wk.Layout.def_b in
    t.c_def.(k) <- def_sum;
    g.v_mac <- g.v_mac +. def_sum;
    t.c_at.(k) <- wk.Layout.d_at;
    t.c_am.(k) <- wk.Layout.d_am;
    t.c_mac.(k) <- wk.Layout.d_mac;
    g.v_at <- g.v_at +. wk.Layout.d_at;
    g.v_am <- g.v_am +. wk.Layout.d_am;
    g.v_mac <- g.v_mac +. wk.Layout.d_mac;
    let frac = wk.Layout.frac in
    (* Child rects exactly as [Rect.split_v]/[split_h] derive them. *)
    match op with
    | Polish.V ->
      let wl = w *. frac in
      g.x <- x;
      g.y <- y;
      g.w <- wl;
      g.h <- h;
      visit t ~may_skip l;
      g.x <- x +. wl;
      g.y <- y;
      g.w <- w -. wl;
      g.h <- h;
      visit t ~may_skip r
    | Polish.H ->
      let hb = h *. frac in
      g.x <- x;
      g.y <- y;
      g.w <- w;
      g.h <- hb;
      visit t ~may_skip l;
      g.x <- x;
      g.y <- y +. hb;
      g.w <- w;
      g.h <- h -. hb;
      visit t ~may_skip r
  end

let same_elt (a : Polish.elt) (b : Polish.elt) =
  match (a, b) with
  | Polish.Operand a, Polish.Operand b -> Int.equal a b
  | Polish.Operator Polish.H, Polish.Operator Polish.H
  | Polish.Operator Polish.V, Polish.Operator Polish.V -> true
  | Polish.Operator _, Polish.Operator _
  | Polish.Operand _, Polish.Operator _ | Polish.Operator _, Polish.Operand _ -> false

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
    if not (was_warm && same_elt t.prev.(k) ek) then begin
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
       integer work for every node; curve composition (the expensive
       part) only runs for nodes whose span changed, each into its own
       position's buffer. A node whose span is unchanged only points at
       buffers of positions inside that span, which are not rewritten
       either. *)
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
          let buf = t.nd_buf.(k) in
          (match op with
          | Polish.V -> Curve.compose_h_into buf t.nd_curve.(l) t.nd_curve.(r)
          | Polish.H -> Curve.compose_v_into buf t.nd_curve.(l) t.nd_curve.(r));
          Curve.prune_in_place ~max_points:Layout.max_curve_points buf;
          t.nd_curve.(k) <- Curve.view buf;
          t.nd_am.(k) <- t.nd_am.(l) +. t.nd_am.(r);
          t.nd_at.(k) <- t.nd_at.(l) +. t.nd_at.(r)
        end;
        t.stack.(!sp) <- k;
        incr sp
    done;
    if !sp <> 1 then invalid_arg "Layout.evaluate: malformed expression";
    (* Phase 2+3: top-down placement with subtree reuse, folding the
       violation contributions in evaluation order as it goes. *)
    let g = t.regs in
    g.v_at <- 0.0;
    g.v_am <- 0.0;
    g.v_mac <- 0.0;
    t.n_moved <- 0;
    t.full <- not was_warm;
    let b = t.budget in
    g.x <- b.Rect.x;
    g.y <- b.Rect.y;
    g.w <- b.Rect.w;
    g.h <- b.Rect.h;
    visit t ~may_skip:was_warm (t.len - 1);
    t.warm <- true;
    violations t
  end
