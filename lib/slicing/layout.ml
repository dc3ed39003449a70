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

(* Decide the size of the first child along the cut axis. [extent] is the
   budget along the cut axis, [cross] the perpendicular dimension.
   [mac_min_a]/[mac_min_b] are the children's curve-derived minimum sizes
   along the axis at the given cross dimension (with their own deficit
   already accounted if the cross dimension is too small for any curve
   point). Returns (first child's extent, violations delta). *)
let split_extent ~extent ~cross ~at_a ~at_b ~am_a ~am_b ~mac_min_a ~mac_min_b =
  let total_at = at_a +. at_b in
  let share = if total_at > 0.0 then extent *. (at_a /. total_at) else extent /. 2.0 in
  (* Stage 1: respect minimum areas when feasible. *)
  let lo_am = if cross > 0.0 then am_a /. cross else 0.0 in
  let hi_am = if cross > 0.0 then extent -. (am_b /. cross) else extent in
  let s1 =
    if lo_am <= hi_am then Util.Stat.clamp ~lo:lo_am ~hi:hi_am share
    else if am_a +. am_b > 0.0 then extent *. (am_a /. (am_a +. am_b))
    else share
  in
  (* Stage 2: macro minima override. *)
  let lo_mac = mac_min_a and hi_mac = extent -. mac_min_b in
  let s2 =
    if lo_mac <= hi_mac then Util.Stat.clamp ~lo:lo_mac ~hi:hi_mac s1
    else if mac_min_a +. mac_min_b > 0.0 then
      extent *. (mac_min_a /. (mac_min_a +. mac_min_b))
    else s1
  in
  let s2 = Util.Stat.clamp ~lo:0.0 ~hi:extent s2 in
  let wa = s2 and wb = extent -. s2 in
  let viol =
    { at_shift = abs_float (s2 -. share) *. cross;
      am_deficit =
        max 0.0 (am_a -. (wa *. cross)) +. max 0.0 (am_b -. (wb *. cross));
      macro_deficit =
        (max 0.0 (mac_min_a -. wa) +. max 0.0 (mac_min_b -. wb)) *. cross }
  in
  (s2, viol)

let add_viol a b =
  { at_shift = a.at_shift +. b.at_shift;
    am_deficit = a.am_deficit +. b.am_deficit;
    macro_deficit = a.macro_deficit +. b.macro_deficit }

(* Minimum extent along the cut axis for a subtree inside cross dimension
   [cross]; pairs the extent with any unavoidable macro deficit when no
   curve point respects [cross]. *)
let macro_min_extent curve ~cross ~axis =
  let q =
    match axis with
    | `Width -> Curve.min_width curve ~h:cross
    | `Height -> Curve.min_height curve ~w:cross
  in
  match q with
  | Some m -> (m, 0.0)
  | None ->
    (* Even unlimited extent cannot fit: charge the smallest curve box's
       cross overflow as macro deficit and require its axis extent. *)
    (match Curve.min_area_point curve with
    | None -> (0.0, 0.0)
    | Some (w, h) ->
      let need_axis, need_cross = match axis with `Width -> (w, h) | `Height -> (h, w) in
      (need_axis, max 0.0 (need_cross -. cross) *. need_axis))

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
  (* Every float feeding [rects]/[viol] is computed the same way with or
     without [per_leaf]; the [charge] calls only write into the
     accumulator, so attributing never changes the placement (a property
     test holds this). *)
  let rec place t (r : Rect.t) =
    match t with
    | Leaf l ->
      (* Leaf macro fit check. *)
      let deficit =
        if Curve.fits l.curve ~w:r.Rect.w ~h:r.Rect.h then 0.0
        else begin
          match Curve.min_area_point l.curve with
          | None -> 0.0
          | Some (w, h) ->
            let need = min ((w -. r.Rect.w) *. h) ((h -. r.Rect.h) *. w) in
            let need = if need <= 0.0 then abs_float need else need in
            max 1e-9 need
        end
      in
      viol := add_viol !viol { no_violations with macro_deficit = deficit };
      (match per_leaf with
      | None -> ()
      | Some arr -> charge arr t { no_violations with macro_deficit = deficit });
      rects := (l.lid, r) :: !rects
    | Node { op; l; r = rt; _ } ->
      (* V cut: widths split, heights shared; H cut: the transpose. *)
      let axis, extent, cross =
        match op with
        | Polish.V -> (`Width, r.Rect.w, r.Rect.h)
        | Polish.H -> (`Height, r.Rect.h, r.Rect.w)
      in
      let mac_a, def_a = macro_min_extent (curve_of l) ~cross ~axis in
      let mac_b, def_b = macro_min_extent (curve_of rt) ~cross ~axis in
      viol := add_viol !viol { no_violations with macro_deficit = def_a +. def_b };
      let s, dv =
        split_extent ~extent ~cross ~at_a:(at_of l) ~at_b:(at_of rt) ~am_a:(am_of l)
          ~am_b:(am_of rt) ~mac_min_a:mac_a ~mac_min_b:mac_b
      in
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
            am_deficit = max 0.0 (am_of l -. (wa *. cross));
            macro_deficit = max 0.0 (mac_a -. wa) *. cross };
        charge arr rt
          { at_shift = dv.at_shift -. at_half;
            am_deficit = max 0.0 (am_of rt -. (wb *. cross));
            macro_deficit = max 0.0 (mac_b -. wb) *. cross });
      let frac = if extent > 0.0 then s /. extent else 0.5 in
      let frac = Util.Stat.clamp ~lo:0.0 ~hi:1.0 frac in
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
