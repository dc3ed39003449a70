type t = (int, float) Hashtbl.t

let create () = Hashtbl.create 8

let add t ~bin ~weight =
  assert (bin >= 0);
  let cur = try Hashtbl.find t bin with Not_found -> 0.0 in
  Hashtbl.replace t bin (cur +. weight)

let get t bin = try Hashtbl.find t bin with Not_found -> 0.0

let is_empty t = Hashtbl.length t = 0

let total t = Hashtbl.fold (fun _ v acc -> acc +. v) t 0.0

let max_bin t = Hashtbl.fold (fun b _ acc -> max b acc) t (-1)

let bins t =
  let l = Hashtbl.fold (fun b v acc -> (b, v) :: acc) t [] in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) l

let merge a b =
  let t = create () in
  let put bin v = add t ~bin ~weight:v in
  Hashtbl.iter put a;
  Hashtbl.iter put b;
  t

let score t ~k =
  assert (k >= 0);
  let term (bin, height) =
    let latency = float_of_int (max bin 1) in
    height /. (latency ** float_of_int k)
  in
  List.fold_left (fun acc b -> acc +. term b) 0.0 (bins t)

let pp ppf t =
  let pp_bin ppf (b, v) = Format.fprintf ppf "%d:%g" b v in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_bin)
    (bins t)
