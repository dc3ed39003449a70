let bfs_layers g ~sources ~direction ~visit ?(expand = fun _ -> true) () =
  let n = Digraph.node_count g in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  let enqueue node d parent =
    if node >= 0 && node < n && dist.(node) < 0 then begin
      dist.(node) <- d;
      visit ~node ~dist:d ~parent;
      Queue.push node q
    end
  in
  List.iter (fun s -> enqueue s 0 (-1)) sources;
  let step u f = match direction with
    | `Fwd -> Digraph.succ_iter g u f
    | `Bwd -> Digraph.pred_iter g u f
  in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    if expand u then step u (fun v -> enqueue v (dist.(u) + 1) u)
  done

let multi_source_nearest ?targets g ~sources =
  let n = Digraph.node_count g in
  let label = Array.make n (-1) in
  (* With [targets], count the targets still unlabelled: a label is
     final when its node is enqueued, so the search can stop as soon as
     the count reaches zero without changing any target's label. *)
  let is_target, pending =
    match targets with
    | None -> ([||], ref (-1))
    | Some ts ->
      let mark = Array.make n false in
      let k = ref 0 in
      Array.iter
        (fun v ->
          if not mark.(v) then begin
            mark.(v) <- true;
            incr k
          end)
        ts;
      (mark, k)
  in
  let q = Queue.create () in
  let enqueue node l =
    if label.(node) < 0 then begin
      label.(node) <- l;
      if !pending > 0 && is_target.(node) then decr pending;
      Queue.push node q
    end
  in
  List.iter (fun (node, l) -> enqueue node l) sources;
  while !pending <> 0 && not (Queue.is_empty q) do
    let u = Queue.pop q in
    let l = label.(u) in
    Digraph.succ_iter g u (fun v -> enqueue v l);
    Digraph.pred_iter g u (fun v -> enqueue v l)
  done;
  label

let distances_from g ~sources =
  let n = Digraph.node_count g in
  let dist = Array.make n (-1) in
  bfs_layers g ~sources ~direction:`Fwd
    ~visit:(fun ~node ~dist:d ~parent:_ -> dist.(node) <- d)
    ();
  dist

let topological_order g =
  let n = Digraph.node_count g in
  let indeg = Array.init n (Digraph.in_degree g) in
  let q = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.push v q
  done;
  let order = Array.make n 0 in
  let k = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order.(!k) <- u;
    incr k;
    Digraph.succ_iter g u (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.push v q)
  done;
  if !k = n then Some order else None

let reachable_set g ~sources =
  let n = Digraph.node_count g in
  let seen = Array.make n false in
  bfs_layers g ~sources ~direction:`Fwd
    ~visit:(fun ~node ~dist:_ ~parent:_ -> seen.(node) <- true)
    ();
  seen

let weakly_connected_components g =
  let n = Digraph.node_count g in
  let label = Array.make n (-1) in
  let q = Queue.create () in
  let comp = ref 0 in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      label.(s) <- !comp;
      Queue.push s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        let touch v =
          if label.(v) < 0 then begin
            label.(v) <- !comp;
            Queue.push v q
          end
        in
        Digraph.succ_iter g u touch;
        Digraph.pred_iter g u touch
      done;
      incr comp
    end
  done;
  (label, !comp)
