(* Order statistics used by every workload. *)

(* Linear-interpolated quantile, q in [0, 1]; nan on an empty list. *)
let quantile q l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else
      let frac = pos -. float_of_int i in
      a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l

(* Median absolute deviation from the median. *)
let mad l =
  let m = median l in
  median (List.map (fun x -> Float.abs (x -. m)) l)

let geomean = function
  | [] -> nan
  | l ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
