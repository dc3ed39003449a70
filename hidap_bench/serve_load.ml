(* serve-small: an open loop against a `hidap serve --workers 2` daemon.

   One process, two connections: one submits each job at its scheduled
   due time, the other polls the job list every [poll_s] (well below
   the 50 ms default period of Serve.Client.wait), so accepted, running
   and terminal transitions are timestamped to within a few ms. Job
   latency runs from the due time, so a stalled generator shows up as
   latency of the jobs behind it. *)

module Client = Serve.Client
module Proto = Serve.Proto

let poll_s = 0.005
let workers = 2
let queue_limit = 32

type job = {
  design : Inputs.design;
  text : string;
  due : float;
  mutable sent : float;
  mutable accepted : float;
  mutable id : string option;
  mutable rejected : bool;
  mutable running : float;  (** first poll that saw it running *)
  mutable terminal : float;  (** first poll that saw it terminal *)
  mutable state : Proto.state;
  mutable detail : string;  (** the daemon's last word on the job *)
}

type daemon = { pid : int; socket : string; state_dir : string; log : string }

let now = Unix.gettimeofday

let clean_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 6 && String.sub kv 0 6 = "HIDAP_"))
       (Array.to_list (Unix.environment ())))

let live : int list ref = ref []

(* Kill any daemon still running when the benchmark exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Start the daemon and return once it answers a Ping. *)
let start ~cli ~dir ~tag =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let state_dir = Filename.concat dir (tag ^ "-state") in
  let log = Filename.concat dir (tag ^ ".log") in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () ->
        Unix.create_process_env cli
          [| cli; "serve"; "--socket"; socket; "--state-dir"; state_dir; "--workers";
             string_of_int workers; "--queue-limit"; string_of_int queue_limit |]
          (clean_env ()) null out out)
  in
  live := pid :: !live;
  let d = { pid; socket; state_dir; log } in
  let deadline = now () +. 30.0 in
  let rec wait () =
    let up =
      match Client.connect ~socket_path:socket with
      | c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.ping c = Ok ())
      | exception Unix.Unix_error _ -> false
    in
    if up then d
    else if now () > deadline then failwith ("daemon did not answer a ping; see " ^ log)
    else (Unix.sleepf 0.002; wait ())
  in
  wait ()

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
          | _ -> scan ()
        in
        scan ())

(* Drain the daemon and wait until it has exited. *)
let stop d =
  (match Client.connect ~socket_path:d.socket with
  | c -> ignore (Client.drain c); Client.close c
  | exception Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; reap ()
    | 0, _ -> Unix.kill d.pid Sys.sigkill; ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (fun p -> p <> d.pid) !live

(* Due offsets: evenly spaced at [rate] jobs/s with a seeded jitter of up
   to +/-40% of the spacing, so arrivals are irregular but never bunch
   into bursts that would make the tail depend on the seed. *)
let schedule ~seed ~rate ~n =
  let rng = Util.Rng.create (0xd0e + seed) in
  let gap = 1.0 /. rate in
  List.init n (fun i ->
      let jitter = if i = 0 then 0.0 else (Util.Rng.float rng 0.8 -. 0.4) *. gap in
      (float_of_int i *. gap) +. jitter)

let submit_spec ~seed (j : job) =
  { Proto.default_submit with
    Proto.hnl = Some j.text; seed = Inputs.place_seed seed; jobs = 1;
    label = j.design.Inputs.name }

type stats_delta = { rejected : int; retried : int; worker_lost : int }

let get_stats c =
  match Client.stats c with
  | Ok s -> s
  | Error e -> failwith ("stats: " ^ Client.error_message e)

(* Run the open loop. Returns once every accepted job is terminal (or a
   generous drain timeout passed; unfinished jobs then count as failed). *)
let run ~d ~seed ~(jobs : job array) =
  let sub = Client.connect ~socket_path:d.socket in
  let pol = Client.connect ~socket_path:d.socket in
  Fun.protect ~finally:(fun () -> Client.close sub; Client.close pol) @@ fun () ->
  let s0 = get_stats pol in
  let by_id = Hashtbl.create 64 in
  let n = Array.length jobs in
  let next = ref 0 and next_poll = ref (now ()) in
  let last_due = if n = 0 then now () else jobs.(n - 1).due in
  let give_up = last_due +. 120.0 in
  let settled () =
    !next >= n
    && Array.for_all (fun (j : job) -> j.rejected || Proto.state_terminal j.state) jobs
  in
  (* Only jobs still in flight are polled, so a poll costs the daemon
     one small status reply per running or queued job. *)
  let poll () =
    Hashtbl.iter
      (fun id (j : job) ->
        if Float.is_nan j.terminal then
          match Client.status pol id with
          | Error e -> failwith ("status: " ^ Client.error_message e)
          | Ok v ->
            let t = now () in
            if v.Proto.state <> Proto.Pending && Float.is_nan j.running then j.running <- t;
            if Proto.state_terminal v.Proto.state then begin
              j.terminal <- t;
              j.state <- v.Proto.state;
              j.detail <- v.Proto.detail
            end)
      by_id;
    next_poll := now () +. poll_s
  in
  while not (settled () || now () > give_up) do
    let t = now () in
    if !next < n && jobs.(!next).due <= t then begin
      let j = jobs.(!next) in
      incr next;
      j.sent <- now ();
      (match Client.submit sub (submit_spec ~seed j) with
      | Ok (`Accepted (id, _)) ->
        j.accepted <- now ();
        j.id <- Some id;
        Hashtbl.replace by_id id j
      | Ok (`Rejected _) -> j.accepted <- now (); j.rejected <- true
      | Error e -> failwith ("submit: " ^ Client.error_message e))
    end
    else if t >= !next_poll then poll ()
    else
      let wake = if !next < n then Float.min jobs.(!next).due !next_poll else !next_poll in
      Unix.sleepf (Float.max 0.0 (wake -. t))
  done;
  let s1 = get_stats pol in
  { rejected =
      s1.Proto.rejected_backpressure - s0.Proto.rejected_backpressure
      + (s1.Proto.rejected_draining - s0.Proto.rejected_draining);
    retried = s1.Proto.retried - s0.Proto.retried;
    worker_lost = s1.Proto.worker_lost - s0.Proto.worker_lost }

type fetched = {
  wl_m : float;
  grc_pct : float;
  wns_pct : float;
  result_ms : float;
  placement : string;
  audit_ok : bool;
  snapshots : int;
}

let rect_hex b (q : Geom.Rect.t) =
  Printf.bprintf b "%h %h %h %h" q.Geom.Rect.x q.Geom.Rect.y q.Geom.Rect.w q.Geom.Rect.h

(* Fetch a finished job's QoR record, and audit its placement against
   the netlist the job was given. *)
let fetch ~d (j : job) id =
  let c = Client.connect ~socket_path:d.socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = now () in
  let doc = Client.result c id in
  let result_ms = (now () -. t0) *. 1000.0 in
  match doc with
  | Error e -> Error ("result: " ^ Client.error_message e)
  | Ok doc -> (
    match Qor.Record.records_of_json doc with
    | Error e -> Error ("qor record: " ^ e)
    | Ok ([] | _ :: _ :: _) -> Error "qor record: expected one record"
    | Ok [ r ] ->
      let flat = Netlist.Flat.elaborate (Hnl.Parser.parse_exn j.text) in
      let pio =
        { Hidap.Placement_io.die = r.Qor.Record.die;
          entries =
            List.map
              (fun (m : Qor.Record.macro) ->
                { Hidap.Placement_io.path = m.Qor.Record.macro_name; rect = m.Qor.Record.macro_rect;
                  orient = m.Qor.Record.orient })
              r.Qor.Record.macros }
      in
      let audit_ok =
        match Hidap.Placement_io.resolve flat pio with
        | Error _ -> false
        | Ok placements ->
          Guard.Audit.ok (Guard.Audit.run ~flat ~die:r.Qor.Record.die ~placements)
      in
      let b = Buffer.create 1024 in
      rect_hex b r.Qor.Record.die;
      List.iter
        (fun (m : Qor.Record.macro) ->
          Printf.bprintf b "\n%s " m.Qor.Record.macro_name;
          rect_hex b m.Qor.Record.macro_rect;
          Printf.bprintf b " %s" (Geom.Orientation.to_string m.Qor.Record.orient))
        r.Qor.Record.macros;
      let qm = r.Qor.Record.qm in
      Ok
        { wl_m = qm.Qor.Record.wl_um *. 1e-6; grc_pct = qm.Qor.Record.grc_pct;
          wns_pct = qm.Qor.Record.wns_pct; result_ms; placement = Buffer.contents b;
          audit_ok;
          snapshots =
            (match r.Qor.Record.ckpt with
            | Some ck -> ck.Qor.Record.snapshots_written
            | None -> 0) })

(* Bytes the job's checkpoint directory holds at the end of the run. *)
let ckpt_bytes ~d id =
  let dir = Serve.Job.ckpt_dir ~state_dir:d.state_dir id in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
    Array.fold_left
      (fun a f ->
        match Unix.stat (Filename.concat dir f) with
        | st when st.Unix.st_kind = Unix.S_REG -> a + st.Unix.st_size
        | _ -> a
        | exception Unix.Unix_error _ -> a)
      0 files
