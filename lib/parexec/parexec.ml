type t = { jobs : int }

let default_jobs () =
  match Sys.getenv_opt "HIDAP_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> min 64 j
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j -> max 1 (min 64 j)
    | None -> max 1 (default_jobs ())
  in
  { jobs }

let jobs t = t.jobs

(* Set while a task body runs, so a nested [map] (e.g. the per-lambda
   sweep tasks each running per-instance annealing starts) degrades to
   a sequential loop instead of spawning domains from a worker. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* ---- pool utilization accounting ----------------------------------

   Per worker slot (0 = the calling domain, 1.. = spawned domains):
   tasks claimed, tasks stolen (claimed by a spawned domain rather than
   the caller) and busy wall-time inside task bodies. Idle time is the
   remainder against the accumulated pool-open wall time. The numbers
   are timing observations — inherently schedule-dependent — so they
   are surfaced here and in the QoR record's perf section, never
   through [Obs.Metrics] (whose output is schedule-independent).
   Nested sequential maps are not recorded: their busy time is
   already inside the enclosing task's. *)

type worker_stats = { tasks : int; steals : int; busy_us : float }

type pool_stats = { workers : worker_stats array; wall_us : float; maps : int }

let max_workers = 64

let stats_lock = Mutex.create ()

let g_tasks = Array.make max_workers 0
let g_steals = Array.make max_workers 0
let g_busy = Array.make max_workers 0.0
let g_wall = ref 0.0
let g_maps = ref 0

let reset_pool_stats () =
  Mutex.lock stats_lock;
  Array.fill g_tasks 0 max_workers 0;
  Array.fill g_steals 0 max_workers 0;
  Array.fill g_busy 0 max_workers 0.0;
  g_wall := 0.0;
  g_maps := 0;
  Mutex.unlock stats_lock

let pool_stats () =
  Mutex.lock stats_lock;
  let hi = ref 0 in
  for w = 0 to max_workers - 1 do
    if g_tasks.(w) > 0 then hi := w + 1
  done;
  let workers =
    Array.init !hi (fun w ->
        { tasks = g_tasks.(w); steals = g_steals.(w); busy_us = g_busy.(w) })
  in
  let st = { workers; wall_us = !g_wall; maps = !g_maps } in
  Mutex.unlock stats_lock;
  st

type ('b, 'reg, 'span) slot =
  | Pending
  | Done of 'b * 'reg option * 'span list
  | Failed of exn * Printexc.raw_backtrace

let map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    (* Sinks are sampled once, on the calling domain: worker domains
       have no recorder of their own, and the atomic telemetry flags
       must not flip collection on for some tasks and off for
       others. *)
    let metrics_on = Obs.Metrics.enabled () in
    let tracing = Obs.Span.enabled () in
    let slots = Array.make n Pending in
    let run_task i =
      let saved = Domain.DLS.get in_task in
      Domain.DLS.set in_task true;
      (match
         let reg = if metrics_on then Some (Obs.Metrics.create ()) else None in
         let body () = f xs.(i) in
         let in_registry () =
           match reg with
           | Some r -> Obs.Metrics.with_ambient r body
           | None -> body ()
         in
         let v, spans =
           if tracing then Obs.Span.capture in_registry else (in_registry (), [])
         in
         (v, reg, spans)
       with
      | v, reg, spans -> slots.(i) <- Done (v, reg, spans)
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        slots.(i) <- Failed (e, bt));
      Domain.DLS.set in_task saved
    in
    let nested = Domain.DLS.get in_task in
    let workers = if nested then 1 else min t.jobs n in
    let tasks_w = Array.make workers 0 in
    let busy_w = Array.make workers 0.0 in
    let map_t0 = Obs.Clock.now_us () in
    let next = Atomic.make 0 in
    let run_worker w =
      Obs.Span.with_publish_slot (fun () ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              let t0 = Obs.Clock.now_us () in
              run_task i;
              busy_w.(w) <- busy_w.(w) +. (Obs.Clock.now_us () -. t0);
              tasks_w.(w) <- tasks_w.(w) + 1;
              loop ()
            end
          in
          loop ())
    in
    if workers <= 1 then run_worker 0
    else begin
      let spawned =
        Array.init (workers - 1) (fun w -> Domain.spawn (fun () -> run_worker (w + 1)))
      in
      run_worker 0;
      Array.iter Domain.join spawned
    end;
    if not nested then begin
      let wall = Obs.Clock.now_us () -. map_t0 in
      Mutex.lock stats_lock;
      for w = 0 to workers - 1 do
        g_tasks.(w) <- g_tasks.(w) + tasks_w.(w);
        if w > 0 then g_steals.(w) <- g_steals.(w) + tasks_w.(w);
        g_busy.(w) <- g_busy.(w) +. busy_w.(w)
      done;
      g_wall := !g_wall +. wall;
      incr g_maps;
      Mutex.unlock stats_lock
    end;
    (* Join: fold per-task telemetry back in task order — the merged
       collections depend only on the tasks, never on the schedule. *)
    Array.iter
      (function
        | Done (_, reg, spans) ->
          (match reg with
          | Some r -> Obs.Metrics.merge_into (Obs.Metrics.ambient ()) r
          | None -> ());
          Obs.Span.graft spans
        | Pending | Failed _ -> ())
      slots;
    Array.iter
      (function
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending | Done _ -> ())
      slots;
    Array.map
      (function
        | Done (v, _, _) -> v
        | Pending | Failed _ -> assert false)
      slots
  end
