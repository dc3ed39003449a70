type op = H | V

type elt =
  | Operand of int
  | Operator of op

type t = elt array

let flip = function H -> V | V -> H

let is_operand = function Operand _ -> true | Operator _ -> false

let is_normalized e =
  let n = Array.length e in
  if n = 0 then false
  else begin
    let ok = ref true in
    let operands = ref 0 and operators = ref 0 in
    for i = 0 to n - 1 do
      (match e.(i) with
      | Operand _ -> incr operands
      | Operator o ->
        incr operators;
        (* no two adjacent equal operators *)
        if i > 0 then (match e.(i - 1) with Operator o' when o' = o -> ok := false | _ -> ()));
      if !operators >= !operands then ok := false
    done;
    !ok && !operands = !operators + 1
  end

let initial ~n =
  assert (n >= 1);
  if n = 1 then [| Operand 0 |]
  else begin
    let e = Array.make ((2 * n) - 1) (Operand 0) in
    e.(0) <- Operand 0;
    let op = ref V in
    for i = 1 to n - 1 do
      e.((2 * i) - 1) <- Operand i;
      e.(2 * i) <- Operator !op;
      op := flip !op
    done;
    e
  end

let initial_random rng ~n =
  let e = initial ~n in
  let operand_positions =
    Array.of_list
      (List.filter (fun i -> is_operand e.(i)) (List.init (Array.length e) (fun i -> i)))
  in
  (* Shuffle the operand values across operand positions. *)
  let values = Array.map (fun i -> e.(i)) operand_positions in
  Util.Rng.shuffle rng values;
  Array.iteri (fun k pos -> e.(pos) <- values.(k)) operand_positions;
  e

let elements t = Array.copy t

let get (t : t) i = t.(i)

let operand_count t =
  Array.fold_left (fun acc e -> if is_operand e then acc + 1 else acc) 0 t

let length t = Array.length t

let of_elements e =
  if not (is_normalized e) then invalid_arg "Polish.of_elements: not normalized";
  Array.copy e

(* The moves below run once per SA move, so they allocate only the
   returned expression: positions are found by scanning, and
   complemented operators are the shared constants [op_h]/[op_v]. The
   draws each move takes from [rng], and the position each draw
   selects, fix every SA trajectory: changing them changes placements. *)

let op_h = Operator H
let op_v = Operator V

(* M1: swap two adjacent operands (adjacent in the subsequence of
   operands, not necessarily in the array). *)
let move_m1 rng t =
  let n = operand_count t in
  if n < 2 then None
  else begin
    (* Positions of the [i]-th and [i + 1]-th operands. *)
    let i = Util.Rng.int rng (n - 1) in
    let p = ref (-1) and q = ref (-1) and k = ref 0 and pos = ref 0 in
    while !q < 0 do
      if is_operand t.(!pos) then begin
        if !k = i then p := !pos else if !k = i + 1 then q := !pos;
        incr k
      end;
      incr pos
    done;
    let e = Array.copy t in
    e.(!p) <- t.(!q);
    e.(!q) <- t.(!p);
    Some e
  end

(* M2: complement a maximal operator chain. The draw is the chain's
   rank counted from the end of the expression. *)
let move_m2 rng t =
  let len = Array.length t in
  let is_start i = (not (is_operand t.(i))) && (i = 0 || is_operand t.(i - 1)) in
  let n_starts = ref 0 in
  for i = 0 to len - 1 do
    if is_start i then incr n_starts
  done;
  if !n_starts = 0 then None
  else begin
    let r = Util.Rng.int rng !n_starts in
    let s = ref len and seen = ref (-1) in
    while !seen < r do
      decr s;
      if is_start !s then incr seen
    done;
    let e = Array.copy t in
    let i = ref !s in
    while !i < len && not (is_operand e.(!i)) do
      e.(!i) <-
        (match e.(!i) with
        | Operator H -> op_v
        | Operator V -> op_h
        | Operand _ -> assert false);
      incr i
    done;
    Some e
  end

(* M3: swap an adjacent operand-operator pair, keeping normalization.
   Try random adjacent pairs a bounded number of times, swapping in one
   scratch copy (and back, when the swap breaks normalization). *)
let move_m3 rng t =
  let len = Array.length t in
  if len < 3 then None
  else begin
    let e = ref [||] and found = ref false and tries = ref 0 in
    while (not !found) && !tries < 16 do
      incr tries;
      let i = Util.Rng.int rng (len - 1) in
      if is_operand t.(i) <> is_operand t.(i + 1) then begin
        if Array.length !e = 0 then e := Array.copy t;
        let a = !e in
        a.(i) <- t.(i + 1);
        a.(i + 1) <- t.(i);
        if is_normalized a then found := true
        else begin
          a.(i) <- t.(i);
          a.(i + 1) <- t.(i + 1)
        end
      end
    done;
    if !found then Some !e else None
  end

let apply_move k rng t =
  match k with 0 -> move_m1 rng t | 1 -> move_m2 rng t | _ -> move_m3 rng t

let perturb rng t =
  let order = [| 0; 1; 2 |] in
  Util.Rng.shuffle rng order;
  match apply_move order.(0) rng t with
  | Some e -> e
  | None -> (
    match apply_move order.(1) rng t with
    | Some e -> e
    | None -> ( match apply_move order.(2) rng t with Some e -> e | None -> t))

let pp ppf t =
  Array.iter
    (fun e ->
      match e with
      | Operand i -> Format.fprintf ppf "%d " i
      | Operator H -> Format.fprintf ppf "H "
      | Operator V -> Format.fprintf ppf "V ")
    t
