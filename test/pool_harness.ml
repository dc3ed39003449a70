(* Regression harness for descriptor reuse in Serve.Pool.spawn.

   Two workers exit and their pipes reach EOF (the parent closes each
   read end) but neither is reaped, so both slots are still occupied.
   A third spawn's fresh pipe then reuses the lowest free descriptors —
   the closed read ends of those siblings. The child must close only
   the siblings' still-open read ends: closing a stale number would
   close its own write end, and its status frame would never arrive.

   The pool forks, which OCaml 5 refuses in a process that has created
   a domain, so this runs as its own executable (the test binary
   spawns it). Exit 0 when the third worker's frame arrives. *)

module Pool = Serve.Pool

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("pool_harness: FAIL: " ^ s); exit 1) fmt

let on_event _ _ = ()

(* Drain every open pipe until each has reached EOF. *)
let drain pool =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Pool.pipe_fds pool with
    | [] -> ()
    | fds ->
      if Unix.gettimeofday () > deadline then fail "a worker pipe never reached EOF";
      let ready, _, _ =
        try Unix.select fds [] [] 0.1
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter (fun fd -> Pool.handle_readable pool fd ~on_event) ready;
      go ()
  in
  go ()

let spawn pool ~child =
  let job = Serve.Job.make ~seq:1 Serve.Proto.default_submit in
  match Pool.spawn pool ~job ~extra_close:[] ~child with
  | Pool.Spawned pid -> pid
  | Pool.No_slot -> fail "no free slot"
  | Pool.Fork_failed msg -> fail "fork failed: %s" msg

(* The worker contract: close what the pool says, then report on the
   pipe's write end. *)
let child ~frame ~pipe_w ~close_fds =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) close_fds;
  if frame then begin
    let line = {|{"event":"job-attempt-end","outcome":"done","detail":"ok"}|} ^ "\n" in
    match Unix.write_substring pipe_w line 0 (String.length line) with
    | _ -> Unix._exit 0
    | exception Unix.Unix_error (e, _, _) ->
      prerr_endline ("pool_harness: worker: " ^ Unix.error_message e);
      Unix._exit 3
  end
  else Unix._exit 0

let () =
  let pool = Pool.create ~size:3 ~stall_s:60.0 ~deadline_grace_s:1.0 in
  (* Both siblings are open at once, so their pipes take distinct
     descriptors (reads r1 and r2 = the first write end) that the third
     pipe gets back as its read and write ends. *)
  ignore (spawn pool ~child:(child ~frame:false));
  ignore (spawn pool ~child:(child ~frame:false));
  drain pool;
  let pid = spawn pool ~child:(child ~frame:true) in
  drain pool;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec collect acc =
    let acc = Pool.reap pool ~on_event @ acc in
    if List.length acc = 3 then acc
    else if Unix.gettimeofday () > deadline then fail "workers were never reaped"
    else begin
      Unix.sleepf 0.01;
      collect acc
    end
  in
  let third = List.find (fun (r : Pool.running) -> r.Pool.pid = pid) (collect []) in
  match (third.Pool.frame, third.Pool.status) with
  | Some ("done", _), Some (Unix.WEXITED 0) -> print_endline "pool_harness: ok"
  | None, Some (Unix.WEXITED code) ->
    fail "the third worker's status frame never arrived (exit %d)" code
  | _ -> fail "the third worker ended without a clean done frame"
