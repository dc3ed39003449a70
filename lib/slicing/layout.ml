module Curve = Shape.Curve
module Rect = Geom.Rect

type leaf = {
  lid : int;
  curve : Curve.t;
  area_min : float;
  area_target : float;
}

type violations = {
  at_shift : float;
  am_deficit : float;
  macro_deficit : float;
}

type placement = {
  rects : (int * Rect.t) list;
  viol : violations;
}

let no_violations = { at_shift = 0.0; am_deficit = 0.0; macro_deficit = 0.0 }

let penalty v ~at_w ~am_w ~macro_w =
  (at_w *. v.at_shift) +. (am_w *. v.am_deficit) +. (macro_w *. v.macro_deficit)

(* Slicing tree reconstructed from the postfix expression. *)
type tree =
  | Leaf of leaf
  | Node of { op : Polish.op; l : tree; r : tree; curve : Curve.t; am : float; at : float }

let curve_of = function Leaf l -> l.curve | Node n -> n.curve

let am_of = function Leaf l -> l.area_min | Node n -> n.am

let at_of = function Leaf l -> l.area_target | Node n -> n.at

let max_curve_points = 24

(* Dense lid -> leaf lookup table. Instance leaves are the block array
   mapped through [Block.to_leaf], so their lids are exactly 0..n-1; a
   duplicate or out-of-range lid means the caller wired the wrong leaf
   set and every per-operand lookup downstream would be garbage, so it
   is rejected up front with a structured diagnostic (not an
   [invalid_arg]: the supervisor must never swallow it into a stage
   fallback). Building the table once per instance also removes the
   O(n) [Array.find_opt] scan per operand that made every tree build
   quadratic. *)
let leaf_table leaves =
  let n = Array.length leaves in
  if n = 0 then [||]
  else begin
    let table = Array.make n leaves.(0) in
    let seen = Array.make n false in
    Array.iter
      (fun l ->
        if l.lid < 0 || l.lid >= n then
          Guard.Diag.fail ~code:"bad-leaf-table" ~stage:"floorplan"
            (Printf.sprintf "leaf lid %d out of range for %d leaves (lids must be 0..%d)"
               l.lid n (n - 1));
        if seen.(l.lid) then
          Guard.Diag.fail ~code:"bad-leaf-table" ~stage:"floorplan"
            (Printf.sprintf "duplicate leaf lid %d in a %d-leaf instance" l.lid n);
        seen.(l.lid) <- true;
        table.(l.lid) <- l)
      leaves;
    table
  end

let leaf_of_table table i =
  if i < 0 || i >= Array.length table then
    Guard.Diag.fail ~code:"bad-leaf-table" ~stage:"floorplan"
      (Printf.sprintf "expression operand %d has no leaf (%d leaves)" i
         (Array.length table));
  table.(i)

let build_tree expr ~table =
  let stack = ref [] in
  Array.iter
    (fun e ->
      match e with
      | Polish.Operand i -> stack := Leaf (leaf_of_table table i) :: !stack
      | Polish.Operator op ->
        (match !stack with
        | r :: l :: rest ->
          (* V cut: children side by side -> widths add (compose_h).
             H cut: children stacked -> heights add (compose_v). *)
          let curve =
            let c =
              match op with
              | Polish.V -> Curve.compose_h (curve_of l) (curve_of r)
              | Polish.H -> Curve.compose_v (curve_of l) (curve_of r)
            in
            if Curve.is_unconstrained c then c else Curve.prune ~max_points:max_curve_points c
          in
          let am = am_of l +. am_of r and at = at_of l +. at_of r in
          stack := Node { op; l; r; curve; am; at } :: rest
        | _ -> invalid_arg "Layout.evaluate: malformed expression"))
    (Polish.elements expr);
  match !stack with
  | [ t ] -> t
  | _ -> invalid_arg "Layout.evaluate: malformed expression"

(* ---- per-node arithmetic -------------------------------------------- *)

(* Monomorphic comparisons with exactly [Stdlib.max]/[min]/[Util.Stat.clamp]'s
   semantics (NaN and signed zeros included), minus the polymorphic C
   call. Defined here so they are inlined and their float arguments stay
   unboxed: dev builds compile with -opaque, where a shared copy in
   another module would be a call with boxed arguments. *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b
let fclamp ~lo ~hi (x : float) = if x < lo then lo else if x > hi then hi else x

(* Scratch of one node's layout arithmetic, shared by [evaluate] and
   [Inc]. Every field is a float, so OCaml stores the record flat: the
   helpers read their inputs from it and write their outputs into it,
   and no float is boxed on the way in or out — passing or returning a
   float (or a tuple of them) across a non-inlined call would allocate
   on every node of every SA move. The caller fills the inputs, calls
   [leaf_fit] or [split_node], and reads the outputs before placing the
   children, which reuse the record. *)
type work = {
  mutable w : float;  (* the node's rectangle *)
  mutable h : float;
  mutable at_a : float;  (* children's target and minimum areas *)
  mutable at_b : float;
  mutable am_a : float;
  mutable am_b : float;
  mutable fit_def : float;  (* [leaf_fit]: the leaf's macro deficit *)
  mutable mac_a : float;  (* [split_node]: children's macro minima ... *)
  mutable def_a : float;  (* ... and unavoidable macro deficits *)
  mutable mac_b : float;
  mutable def_b : float;
  mutable s : float;  (* first child's extent along the cut *)
  mutable frac : float;  (* [s] as a fraction of the extent, in [0, 1] *)
  mutable d_at : float;  (* the split's violation delta *)
  mutable d_am : float;
  mutable d_mac : float;
}

let work () =
  { w = 0.0; h = 0.0; at_a = 0.0; at_b = 0.0; am_a = 0.0; am_b = 0.0; fit_def = 0.0;
    mac_a = 0.0; def_a = 0.0; mac_b = 0.0; def_b = 0.0; s = 0.0; frac = 0.0; d_at = 0.0;
    d_am = 0.0; d_mac = 0.0 }

(* Leaf macro fit: zero when some curve point fits the (w, h) box,
   otherwise the area the smallest curve box lacks. *)
let leaf_fit wk (c : Curve.t) =
  let w = wk.w and h = wk.h and p = c.Curve.pts in
  let fits = ref (c.Curve.len = 0) and i = ref 0 in
  while (not !fits) && !i < c.Curve.len do
    fits := p.(2 * !i) <= w +. Curve.eps && p.((2 * !i) + 1) <= h +. Curve.eps;
    incr i
  done;
  wk.fit_def <-
    (if !fits then 0.0
     else begin
       let b = Curve.min_area_index c in
       let cw = p.(2 * b) and ch = p.((2 * b) + 1) in
       let need = fmin ((cw -. w) *. ch) ((ch -. h) *. cw) in
       let need = if need <= 0.0 then abs_float need else need in
       fmax 1e-9 need
     end)

(* Minimum extent along the cut axis for a subtree inside cross
   dimension [cross] (the node's height for a V cut, its width for an H
   cut): the least axis coordinate of a curve point whose cross
   coordinate fits. When no point respects [cross], the smallest curve
   box's cross overflow is an unavoidable macro deficit and its axis
   extent is required. Written to the [a] or [b] side of [wk]. *)
let macro_min_extent wk (c : Curve.t) op ~first =
  let ax, cross = match op with Polish.V -> (0, wk.h) | Polish.H -> (1, wk.w) in
  let p = c.Curve.pts in
  let m = ref 0.0 and d = ref 0.0 and found = ref (c.Curve.len = 0) in
  for i = 0 to c.Curve.len - 1 do
    if p.((2 * i) + 1 - ax) <= cross +. Curve.eps then begin
      m := if !found then fmin !m p.((2 * i) + ax) else p.((2 * i) + ax);
      found := true
    end
  done;
  if not !found then begin
    let b = Curve.min_area_index c in
    let need_axis = p.((2 * b) + ax) and need_cross = p.((2 * b) + 1 - ax) in
    m := need_axis;
    d := fmax 0.0 (need_cross -. cross) *. need_axis
  end;
  if first then begin
    wk.mac_a <- !m;
    wk.def_a <- !d
  end
  else begin
    wk.mac_b <- !m;
    wk.def_b <- !d
  end

(* Decide the size of the first child along the cut axis from the
   target areas, then shift it for the minimum areas and the macro
   minima ([mac_a]/[mac_b], whose own deficits are already charged);
   every shifted or unsatisfiable area is the split's violation delta. *)
let split_extent wk op =
  let extent, cross = match op with Polish.V -> (wk.w, wk.h) | Polish.H -> (wk.h, wk.w) in
  let at_a = wk.at_a and am_a = wk.am_a and am_b = wk.am_b in
  let mac_min_a = wk.mac_a and mac_min_b = wk.mac_b in
  let total_at = at_a +. wk.at_b in
  let share = if total_at > 0.0 then extent *. (at_a /. total_at) else extent /. 2.0 in
  (* Stage 1: respect minimum areas when feasible. *)
  let lo_am = if cross > 0.0 then am_a /. cross else 0.0 in
  let hi_am = if cross > 0.0 then extent -. (am_b /. cross) else extent in
  let s1 =
    if lo_am <= hi_am then fclamp ~lo:lo_am ~hi:hi_am share
    else if am_a +. am_b > 0.0 then extent *. (am_a /. (am_a +. am_b))
    else share
  in
  (* Stage 2: macro minima override. *)
  let lo_mac = mac_min_a and hi_mac = extent -. mac_min_b in
  let s2 =
    if lo_mac <= hi_mac then fclamp ~lo:lo_mac ~hi:hi_mac s1
    else if mac_min_a +. mac_min_b > 0.0 then
      extent *. (mac_min_a /. (mac_min_a +. mac_min_b))
    else s1
  in
  let s2 = fclamp ~lo:0.0 ~hi:extent s2 in
  let wa = s2 and wb = extent -. s2 in
  wk.s <- s2;
  wk.d_at <- abs_float (s2 -. share) *. cross;
  wk.d_am <- fmax 0.0 (am_a -. (wa *. cross)) +. fmax 0.0 (am_b -. (wb *. cross));
  wk.d_mac <- (fmax 0.0 (mac_min_a -. wa) +. fmax 0.0 (mac_min_b -. wb)) *. cross;
  let frac = if extent > 0.0 then s2 /. extent else 0.5 in
  wk.frac <- fclamp ~lo:0.0 ~hi:1.0 frac

let split_node wk op ca cb =
  macro_min_extent wk ca op ~first:true;
  macro_min_extent wk cb op ~first:false;
  split_extent wk op

let add_viol a b =
  { at_shift = a.at_shift +. b.at_shift;
    am_deficit = a.am_deficit +. b.am_deficit;
    macro_deficit = a.macro_deficit +. b.macro_deficit }

let rec fold_leaves t acc f =
  match t with
  | Leaf l -> f acc l
  | Node { l; r; _ } -> fold_leaves r (fold_leaves l acc f) f

let scale_viol v w =
  { at_shift = v.at_shift *. w;
    am_deficit = v.am_deficit *. w;
    macro_deficit = v.macro_deficit *. w }

(* Charge a violation delta to every leaf of [t], proportionally to
   target area (equal split when the subtree has none). The spread is
   attribution bookkeeping only: the exact total always lives in the
   shared [viol] accumulator, and downstream consumers reconcile the
   per-leaf rounding with an explicit residual (DESIGN.md §13). *)
let charge arr t v =
  if v.at_shift <> 0.0 || v.am_deficit <> 0.0 || v.macro_deficit <> 0.0 then
    match t with
    | Leaf l -> arr.(l.lid) <- add_viol arr.(l.lid) v
    | Node _ ->
      let total_at = at_of t in
      let n_leaves = fold_leaves t 0 (fun acc _ -> acc + 1) in
      let share l =
        if total_at > 0.0 then l.area_target /. total_at
        else 1.0 /. float_of_int n_leaves
      in
      fold_leaves t () (fun () l ->
          arr.(l.lid) <- add_viol arr.(l.lid) (scale_viol v (share l)))

let evaluate ?per_leaf expr ~leaves ~budget =
  let tree = build_tree expr ~table:(leaf_table leaves) in
  let rects = ref [] in
  let viol = ref no_violations in
  let wk = work () in
  (* Every float feeding [rects]/[viol] is computed the same way with or
     without [per_leaf]; the [charge] calls only write into the
     accumulator, so attributing never changes the placement (a property
     test holds this). *)
  let rec place t (r : Rect.t) =
    match t with
    | Leaf l ->
      wk.w <- r.Rect.w;
      wk.h <- r.Rect.h;
      leaf_fit wk l.curve;
      let deficit = wk.fit_def in
      viol := add_viol !viol { no_violations with macro_deficit = deficit };
      (match per_leaf with
      | None -> ()
      | Some arr -> charge arr t { no_violations with macro_deficit = deficit });
      rects := (l.lid, r) :: !rects
    | Node { op; l; r = rt; _ } ->
      (* V cut: widths split, heights shared; H cut: the transpose. *)
      let extent, cross =
        match op with Polish.V -> (r.Rect.w, r.Rect.h) | Polish.H -> (r.Rect.h, r.Rect.w)
      in
      wk.w <- r.Rect.w;
      wk.h <- r.Rect.h;
      wk.at_a <- at_of l;
      wk.at_b <- at_of rt;
      wk.am_a <- am_of l;
      wk.am_b <- am_of rt;
      split_node wk op (curve_of l) (curve_of rt);
      let mac_a = wk.mac_a and def_a = wk.def_a and mac_b = wk.mac_b and def_b = wk.def_b in
      let s = wk.s and frac = wk.frac in
      let dv = { at_shift = wk.d_at; am_deficit = wk.d_am; macro_deficit = wk.d_mac } in
      viol := add_viol !viol { no_violations with macro_deficit = def_a +. def_b };
      viol := add_viol !viol dv;
      (match per_leaf with
      | None -> ()
      | Some arr ->
        charge arr l { no_violations with macro_deficit = def_a };
        charge arr rt { no_violations with macro_deficit = def_b };
        (* Per-side decomposition of the split violation: the
           minimum-area addends are exactly the two terms summed inside
           [split_extent]; the target shift has no natural side, so it
           splits evenly; the macro terms distribute the shared [cross]
           factor per side. *)
        let wa = s and wb = extent -. s in
        let at_half = 0.5 *. dv.at_shift in
        charge arr l
          { at_shift = at_half;
            am_deficit = fmax 0.0 (am_of l -. (wa *. cross));
            macro_deficit = fmax 0.0 (mac_a -. wa) *. cross };
        charge arr rt
          { at_shift = dv.at_shift -. at_half;
            am_deficit = fmax 0.0 (am_of rt -. (wb *. cross));
            macro_deficit = fmax 0.0 (mac_b -. wb) *. cross });
      let ra, rb =
        match op with
        | Polish.V -> Rect.split_v r frac
        | Polish.H -> Rect.split_h r frac
      in
      place l ra;
      place rt rb
  in
  place tree budget;
  { rects = List.rev !rects; viol = !viol }

let tree_curve expr ~leaves =
  let tree = build_tree expr ~table:(leaf_table leaves) in
  curve_of tree
