(* Supervisor for the daemon's forked worker processes.

   A fixed array of slots, each either idle or holding one running
   child: its pid, its job, the read end of its progress pipe, and the
   liveness bookkeeping the watchdog needs. Everything here runs on
   the daemon's single domain — the engine's select loop calls in for
   spawn / readable-pipe / reap / watchdog ticks — so there is no
   locking, and (critically) the parent stays fork-safe: OCaml 5
   refuses Unix.fork in any process that has ever created a domain,
   which is why job execution lives in children and the parent never
   spawns one.

   Lifecycle of a slot: [spawn] forks a child around the caller's
   closure (a Worker.exec call), the parent keeps the pipe's read end
   nonblocking; [handle_readable] consumes NDJSON progress (each byte
   refreshing the watchdog's liveness stamp, final status frames
   captured); [reap] collects exit statuses with waitpid WNOHANG and
   hands back children whose pipe hit EOF; [watchdog] SIGKILLs
   children that outran their job deadline or went silent. *)

module J = Obs.Jsonx

type running = {
  pid : int;
  job : Job.t;
  pipe_r : Unix.file_descr;
  rbuf : Buffer.t;
  started_s : float;
  mutable last_io_s : float;  (** last byte seen on the pipe *)
  mutable frame : (string * string) option;  (** final status frame *)
  mutable killed : Worker.kill_reason option;  (** watchdog SIGKILL *)
  mutable drain_killed : bool;  (** SIGKILLed by drain's hard phase *)
  mutable status : Unix.process_status option;
  mutable eof : bool;
}

type slot = { idx : int; mutable running : running option }

type t = { slots : slot array; stall_s : float; deadline_grace_s : float }

let create ~size ~stall_s ~deadline_grace_s =
  { slots = Array.init (max 1 size) (fun idx -> { idx; running = None });
    stall_s; deadline_grace_s }

let size t = Array.length t.slots

let busy t = Array.exists (fun s -> s.running <> None) t.slots

let idle_slots t =
  Array.fold_left (fun n s -> if s.running = None then n + 1 else n) 0 t.slots

type spawn_result = Spawned of int | No_slot | Fork_failed of string

let pipe_fds t =
  Array.to_list t.slots
  |> List.filter_map (fun s ->
         match s.running with
         | Some r when not r.eof -> Some r.pipe_r
         | _ -> None)

let spawn t ~job ~extra_close ~child =
  match Array.find_opt (fun s -> s.running = None) t.slots with
  | None -> No_slot
  | Some slot ->
    (* Only the still-open read ends: a sibling whose pipe hit EOF has
       already closed its descriptor, and the [Unix.pipe] below may
       reuse that number for this child's write end. *)
    let sibling_pipes = pipe_fds t in
    (match Unix.pipe () with
    | exception Unix.Unix_error (e, _, _) -> Fork_failed (Unix.error_message e)
    | pipe_r, pipe_w ->
      (* fork duplicates stdio buffers; flush so the child cannot
         replay the parent's pending output into its log *)
      flush stdout;
      flush stderr;
      Format.pp_print_flush Format.err_formatter ();
      (match Unix.fork () with
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close pipe_r with Unix.Unix_error _ -> ());
        (try Unix.close pipe_w with Unix.Unix_error _ -> ());
        Fork_failed (Unix.error_message e)
      | 0 ->
        (* The child must not hold the read end (its EOF is the
           parent's end-of-stream signal) nor any sibling's. [child]
           never returns (Worker.exec exits); exit defensively if it
           somehow does — returning here would run the daemon twice. *)
        child ~pipe_w ~close_fds:(pipe_r :: (sibling_pipes @ extra_close));
        Stdlib.exit 127
      | pid ->
        Unix.close pipe_w;
        Unix.set_nonblock pipe_r;
        let now = Unix.gettimeofday () in
        slot.running <-
          Some
            { pid; job; pipe_r; rbuf = Buffer.create 256; started_s = now;
              last_io_s = now; frame = None; killed = None;
              drain_killed = false; status = None; eof = false };
        Spawned pid))

(* Split complete lines out of [r.rbuf], leaving any partial tail. *)
let take_lines buf =
  let data = Buffer.contents buf in
  Buffer.clear buf;
  let rec go start acc =
    match String.index_from_opt data start '\n' with
    | Some i -> go (i + 1) (String.sub data start (i - start) :: acc)
    | None ->
      Buffer.add_substring buf data start (String.length data - start);
      List.rev acc
  in
  go 0 []

let scratch = Bytes.create 65536

let consume r ~on_event =
  List.iter
    (fun line ->
      match J.parse line with
      | Error _ -> ()
      | Ok j ->
        (match Option.bind (J.member "event" j) J.to_string_opt with
        | Some "job-attempt-end" ->
          let str name =
            Option.value ~default:""
              (Option.bind (J.member name j) J.to_string_opt)
          in
          r.frame <- Some (str "outcome", str "detail")
        | _ -> ());
        on_event r.job j)
    (take_lines r.rbuf)

(* Drain the (nonblocking) pipe: refresh liveness, buffer bytes, parse
   complete lines. Returns at EOF (pipe closed, fd released), EAGAIN,
   or a transient read error. *)
let rec read_pipe r ~on_event =
  if not r.eof then
    match Unix.read r.pipe_r scratch 0 (Bytes.length scratch) with
    | 0 ->
      r.eof <- true;
      (try Unix.close r.pipe_r with Unix.Unix_error _ -> ());
      consume r ~on_event
    | n ->
      r.last_io_s <- Unix.gettimeofday ();
      Buffer.add_subbytes r.rbuf scratch 0 n;
      consume r ~on_event;
      read_pipe r ~on_event
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_pipe r ~on_event
    | exception Unix.Unix_error _ ->
      (* Treat any other read error like EOF: stop watching the pipe;
         the exit status still classifies the job. *)
      r.eof <- true;
      (try Unix.close r.pipe_r with Unix.Unix_error _ -> ())

let handle_readable t fd ~on_event =
  Array.iter
    (fun s ->
      match s.running with
      | Some r when (not r.eof) && r.pipe_r = fd -> read_pipe r ~on_event
      | _ -> ())
    t.slots

(* Collect exit statuses and hand back every child that is fully gone:
   reaped by waitpid AND its pipe at EOF (all progress consumed — the
   final status frame must not race the verdict). Once the child is
   dead there are no writers left, so the pipe always reaches EOF. *)
let reap t ~on_event =
  let finished = ref [] in
  Array.iter
    (fun s ->
      match s.running with
      | None -> ()
      | Some r ->
        if r.status = None then begin
          match Unix.waitpid [ Unix.WNOHANG ] r.pid with
          | 0, _ -> ()
          | _, st -> r.status <- Some st
          | exception Unix.Unix_error _ ->
            (* ECHILD would mean someone else reaped our child; call
               the status unknowable and classify as lost. *)
            r.status <- Some (Unix.WEXITED 127)
        end;
        (match r.status with
        | Some _ ->
          read_pipe r ~on_event;
          if r.eof then begin
            s.running <- None;
            finished := r :: !finished
          end
        | None -> ()))
    t.slots;
  List.rev !finished

(* SIGKILL children that outran their job's deadline (plus grace) or
   went silent past the stall bound. Heartbeats count as liveness —
   the child emits one every 0.5 s — so silence really means a wedged
   or dead-but-unreaped worker, not a slow job. *)
let watchdog t ~now =
  let kills = ref [] in
  Array.iter
    (fun s ->
      match s.running with
      | Some r when r.killed = None && (not r.drain_killed) && r.status = None ->
        let reason =
          match r.job.Job.spec.Proto.deadline_s with
          | Some d when now -. r.started_s > d +. t.deadline_grace_s ->
            Some (Worker.Kill_deadline d)
          | _ ->
            if now -. r.last_io_s > t.stall_s then Some (Worker.Kill_hang t.stall_s)
            else None
        in
        (match reason with
        | None -> ()
        | Some reason ->
          r.killed <- Some reason;
          kills := (r.job, reason) :: !kills;
          (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ()))
      | _ -> ())
    t.slots;
  List.rev !kills

(* Drain, soft phase: ask every running child to checkpoint and park
   (its SIGTERM handler requests cooperative cancellation). *)
let term_all t =
  Array.iter
    (fun s ->
      match s.running with
      | Some r when r.status = None ->
        (try Unix.kill r.pid Sys.sigterm with Unix.Unix_error _ -> ())
      | _ -> ())
    t.slots

(* Drain, hard phase: SIGKILL whatever ignored the park request. The
   job goes back to pending — its checkpoint store resumes it. *)
let kill_all t =
  Array.iter
    (fun s ->
      match s.running with
      | Some r when r.status = None ->
        r.drain_killed <- true;
        (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ())
      | _ -> ())
    t.slots

let views t ~now =
  Array.to_list t.slots
  |> List.map (fun s ->
         match s.running with
         | None ->
           { Proto.slot = s.idx; pid = None; job = None; elapsed_s = 0.0 }
         | Some r ->
           { Proto.slot = s.idx; pid = Some r.pid; job = Some r.job.Job.id;
             elapsed_s = now -. r.started_s })
