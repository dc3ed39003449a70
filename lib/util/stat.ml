let require_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty list")
  | _ :: _ -> ()

let geometric_mean xs =
  require_nonempty "geometric_mean" xs;
  let add_log acc x =
    if x <= 0.0 then invalid_arg "geometric_mean: non-positive element"
    else acc +. log x
  in
  let s = List.fold_left add_log 0.0 xs in
  exp (s /. float_of_int (List.length xs))

let mean xs =
  require_nonempty "mean" xs;
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let minimum xs =
  require_nonempty "minimum" xs;
  List.fold_left min infinity xs

let maximum xs =
  require_nonempty "maximum" xs;
  List.fold_left max neg_infinity xs

let stddev xs =
  require_nonempty "stddev" xs;
  let m = mean xs in
  let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  sqrt (sq /. float_of_int (List.length xs))

let median xs =
  require_nonempty "median" xs;
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let clamp ~lo ~hi (x : float) = if x < lo then lo else if x > hi then hi else x

let clamp_int ~lo ~hi (x : int) = if x < lo then lo else if x > hi then hi else x

let round_to ~digits x =
  let f = 10.0 ** float_of_int digits in
  Float.round (x *. f) /. f
