module Tree = Hier.Tree
module Flat = Netlist.Flat

let assign tree ~sgamma ~hcb ~hcg =
  let flat = Tree.flat tree in
  let hcb = Array.of_list hcb in
  (* Seed the multi-source BFS with every cell of every block. *)
  let sources =
    Array.to_list hcb
    |> List.mapi (fun bi ht -> List.map (fun cid -> (cid, bi)) (Tree.cells_below tree ht))
    |> List.concat
  in
  (* Glue cells are the only labels read, so the BFS stops as soon as
     each of them has one instead of walking the whole flat netlist. *)
  let glue = List.concat_map (Tree.cells_below tree) hcg in
  let label =
    Graphlib.Traversal.multi_source_nearest ~targets:(Array.of_list glue)
      flat.Flat.gnet ~sources
  in
  (* Absorb glue cell areas into the nearest block. *)
  let extra = Array.make (Array.length hcb) 0.0 in
  let orphan = ref 0.0 in
  List.iter
    (fun cid ->
      let a = flat.Flat.nodes.(cid).Flat.area in
      let l = label.(cid) in
      if l >= 0 then extra.(l) <- extra.(l) +. a else orphan := !orphan +. a)
    glue;
  let am = Array.map (fun ht -> Tree.area tree ht) hcb in
  let am_total = Array.fold_left ( +. ) 0.0 am in
  let blocks =
    Array.mapi
      (fun bi ht ->
        let share =
          if am_total > 0.0 then !orphan *. (am.(bi) /. am_total)
          else !orphan /. float_of_int (Array.length hcb)
        in
        { Block.idx = bi;
          ht_id = ht;
          name = (Tree.node tree ht).Tree.name;
          curve = Shape_curves.curve sgamma ht;
          am = am.(bi);
          at = am.(bi) +. extra.(bi) +. share;
          macro_count = Tree.macro_count tree ht })
      hcb
  in
  blocks
