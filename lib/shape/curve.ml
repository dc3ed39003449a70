(* Points stored unboxed: point [i] is [(pts.(2i), pts.(2i+1))] for
   [i < len], sorted by non-decreasing width with strictly decreasing
   heights (Pareto staircase). [len = 0] is the curve of a block without
   macros ([Unconstrained]); every other curve has at least one point.
   An allocated curve's array holds exactly its points; a {!buf}'s array
   is its capacity and [len] says how much of it is in use. *)

type t = {
  mutable len : int;
  pts : float array;
}

type buf = t

let unconstrained = { len = 0; pts = [||] }

(* Monomorphic comparisons, the exact semantics of [Stdlib.max]/[min]
   (including NaN and signed zeros) without the polymorphic C call. *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

let pareto pts =
  let pts = List.filter (fun (w, h) -> w > 0.0 && h > 0.0) pts in
  let sorted =
    List.sort
      (fun (w1, h1) (w2, h2) -> if w1 = w2 then compare h1 h2 else compare w1 w2)
      pts
  in
  (* Scan by increasing width keeping strictly decreasing heights. *)
  let rec keep best_h = function
    | [] -> []
    | (w, h) :: rest -> if h < best_h then (w, h) :: keep h rest else keep best_h rest
  in
  keep infinity sorted

let of_list l =
  let n = List.length l in
  let pts = Array.create_float (2 * n) in
  List.iteri
    (fun i (w, h) ->
      pts.(2 * i) <- w;
      pts.((2 * i) + 1) <- h)
    l;
  { len = n; pts }

let of_points pts =
  match pareto pts with
  | [] -> invalid_arg "Curve.of_points: no valid points"
  | l -> of_list l

let of_macro ~w ~h ?(rotate = true) () =
  assert (w > 0.0 && h > 0.0);
  if rotate && w <> h then of_points [ (w, h); (h, w) ] else of_points [ (w, h) ]

let points t = List.init t.len (fun i -> (t.pts.(2 * i), t.pts.((2 * i) + 1)))

let is_unconstrained t = t.len = 0

let size t = t.len

let eps = 1e-9

let fits t ~w ~h =
  t.len = 0
  ||
  let p = t.pts and found = ref false and i = ref 0 in
  while (not !found) && !i < t.len do
    found := p.(2 * !i) <= w +. eps && p.((2 * !i) + 1) <= h +. eps;
    incr i
  done;
  !found

(* Least [pts.(2i + axis)] over the points whose other coordinate is
   within [bound]; [None] when no point qualifies. *)
let min_coord t ~axis ~bound =
  if t.len = 0 then Some 0.0
  else begin
    let p = t.pts and best = ref infinity and found = ref false in
    for i = 0 to t.len - 1 do
      if p.((2 * i) + 1 - axis) <= bound +. eps then
        if !found then best := fmin !best p.((2 * i) + axis)
        else begin
          best := p.((2 * i) + axis);
          found := true
        end
    done;
    if !found then Some !best else None
  end

let min_height t ~w = min_coord t ~axis:1 ~bound:w

let min_width t ~h = min_coord t ~axis:0 ~bound:h

(* Index of the first point of least area, scanning in staircase order. *)
let min_area_index t =
  let p = t.pts and best = ref 0 in
  for i = 0 to t.len - 1 do
    if p.(2 * i) *. p.((2 * i) + 1) < p.(2 * !best) *. p.((2 * !best) + 1) then best := i
  done;
  !best

let min_area_point t =
  if t.len = 0 then None
  else
    let i = min_area_index t in
    Some (t.pts.(2 * i), t.pts.((2 * i) + 1))

let min_area t =
  if t.len = 0 then 0.0
  else
    let i = min_area_index t in
    t.pts.(2 * i) *. t.pts.((2 * i) + 1)

(* ---- buffers ---------------------------------------------------------- *)

let buffer ~capacity = { len = 0; pts = Array.create_float (2 * capacity) }

let view b = b

let capacity b = Array.length b.pts / 2

let need dst n =
  if n > capacity dst then
    invalid_arg
      (Printf.sprintf "Curve: buffer of capacity %d cannot hold %d points" (capacity dst) n)

let copy_into dst src =
  need dst src.len;
  Array.blit src.pts 0 dst.pts 0 (2 * src.len);
  dst.len <- src.len

(* The h/v compositions dominate the SA hot path, so they use the
   classical staircase merge instead of [compose_with]'s cartesian
   product + sort. Both inputs are strict staircases (widths strictly
   increasing, heights strictly decreasing), so starting from the
   narrowest pair and advancing the curve holding the current maximum
   height enumerates exactly the undominated combinations, already in
   increasing-width order: advancing the other curve could not lower the
   max but would widen the sum, and any skipped pair keeps the height of
   some emitted point at a larger width. The emitted floats are the same
   [w1 +. w2] / [max h1 h2] the product would produce, so the result is
   bit for bit [pareto] of the full product (the shape property suite
   asserts this against the cartesian reference). The merge emits at
   most [n1 + n2 - 1] points, written straight into [dst]. *)
let merge_h dst a b =
  need dst (a.len + b.len - 1);
  let pa = a.pts and pb = b.pts and out = dst.pts in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  while !i < a.len && !j < b.len do
    let h1 = pa.((2 * !i) + 1) and h2 = pb.((2 * !j) + 1) in
    out.(2 * !k) <- pa.(2 * !i) +. pb.(2 * !j);
    out.((2 * !k) + 1) <- fmax h1 h2;
    incr k;
    if h1 > h2 then incr i else if h2 > h1 then incr j else (incr i; incr j)
  done;
  dst.len <- !k

(* Same merge transposed: width plays height's role, so the walk starts
   from the widest (lowest) pair and retreats the curve holding the
   current maximum width, emitting in decreasing-width order. It fills
   [dst] from the back, then slides the points to the front, so they
   come out in staircase order with no reversal pass. *)
let merge_v dst a b =
  let cap = a.len + b.len - 1 in
  need dst cap;
  let pa = a.pts and pb = b.pts and out = dst.pts in
  let k = ref cap and i = ref (a.len - 1) and j = ref (b.len - 1) in
  while !i >= 0 && !j >= 0 do
    let w1 = pa.(2 * !i) and w2 = pb.(2 * !j) in
    decr k;
    out.(2 * !k) <- fmax w1 w2;
    out.((2 * !k) + 1) <- pa.((2 * !i) + 1) +. pb.((2 * !j) + 1);
    if w1 > w2 then decr i else if w2 > w1 then decr j else (decr i; decr j)
  done;
  let n = cap - !k in
  if !k > 0 then Array.blit out (2 * !k) out 0 (2 * n);
  dst.len <- n

let compose_into merge dst a b =
  if a.len = 0 then copy_into dst b
  else if b.len = 0 then copy_into dst a
  else merge dst a b

let compose_h_into dst a b = compose_into merge_h dst a b

let compose_v_into dst a b = compose_into merge_v dst a b

(* A filled scratch buffer as an allocated curve: an array holding
   exactly its points. *)
let trim b = if b.len = capacity b then b else { b with pts = Array.sub b.pts 0 (2 * b.len) }

(* Allocating versions: an unconstrained side returns the other curve
   itself; otherwise the merge writes into a fresh curve. *)
let compose merge a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else begin
    let dst = buffer ~capacity:(a.len + b.len - 1) in
    merge dst a b;
    trim dst
  end

let compose_h a b = compose merge_h a b

let compose_v a b = compose merge_v a b

let compose_best a b =
  match (compose_h a b, compose_v a b) with
  | h, v when h.len = 0 || v.len = 0 -> (* only if an input was unconstrained *) h
  | h, v -> of_points (points h @ points v)

(* Thin [src] (more than [max_points] points) into [dst], which may be
   [src] itself: keep the extremes, sample the interior evenly, then
   drop the dominated samples. The sampled indices strictly increase and
   never fall below their output slot, so sampling in place never
   overwrites a point it still has to read.

   The samples come from a staircase, so they are already sorted by
   non-decreasing width; [pareto]'s sort would only reorder points of
   equal width (by increasing height). One linear pass therefore gives
   exactly [pareto]'s result: each run of equal widths contributes its
   least positive height, kept when it is strictly below every height
   kept so far. Equal widths do occur, when [w1 +. w2] rounds two sums
   to one float; a property test compares this pass with [of_points]. *)
let prune_into ~max_points src dst =
  let n = src.len and s = src.pts and d = dst.pts in
  for i = 0 to max_points - 1 do
    let idx = i * (n - 1) / (max_points - 1) in
    d.(2 * i) <- s.(2 * idx);
    d.((2 * i) + 1) <- s.((2 * idx) + 1)
  done;
  let out = ref 0 and best_h = ref infinity and i = ref 0 in
  while !i < max_points do
    let w = d.(2 * !i) in
    let h_min = ref infinity and in_run = ref true in
    while !in_run do
      let h = d.((2 * !i) + 1) in
      if h > 0.0 && h < !h_min then h_min := h;
      incr i;
      in_run := !i < max_points && d.(2 * !i) = w
    done;
    if w > 0.0 && !h_min < !best_h then begin
      d.(2 * !out) <- w;
      d.((2 * !out) + 1) <- !h_min;
      best_h := !h_min;
      incr out
    end
  done;
  if !out = 0 then invalid_arg "Curve.of_points: no valid points";
  dst.len <- !out

let prune ~max_points t =
  assert (max_points >= 2);
  if t.len <= max_points then t
  else begin
    let dst = buffer ~capacity:max_points in
    prune_into ~max_points t dst;
    trim dst
  end

let prune_in_place ~max_points b =
  assert (max_points >= 2);
  if b.len > max_points then prune_into ~max_points b b

let pp ppf t =
  if t.len = 0 then Format.pp_print_string ppf "<unconstrained>"
  else begin
    let pp_pt ppf (w, h) = Format.fprintf ppf "(%.2f,%.2f)" w h in
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp_pt)
      (points t)
  end
