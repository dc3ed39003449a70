(* HiDaP benchmark: one workload per process.

     hbench.exe --workload suite-place|serve-small --seed N
                --seconds S --trace 0|1 --cli PATH/hidap_cli.exe --work DIR

   With --trace 0 it measures the end-to-end metrics; with --trace 1 it
   runs one untraced and one traced pass and reports per-layer metrics
   from the benchmark's own spans. Every metric is printed as
   "name value unit"; the last line is one JSON object
   {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
   a correctness check failed: replay identity, audit, determinism
   across passes and runs, serve completion, or trace coverage. *)

let now = Unix.gettimeofday

(* Set-ups per run; setup_s is their median. *)
let setup_repeats = 9

(* Jobs per second of the serve-small open loop: about half of what
   two workers complete when saturated (see README.md). *)
let serve_rate = 1.5

(* In-process designs the serve-small traced run places for its
   per-layer breakdown. *)
let serve_traced_designs = 8

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* ---- checks ---------------------------------------------------------- *)

let problems : string list ref = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Placements of one (workload, seed, build) must repeat across runs:
   the first clean run records a digest, every later run compares
   against it. [key] names the build (see [build_id]), so a program
   that places differently on purpose starts a record of its own. *)
let check_repeat ~work ~key placements =
  let digest = Digest.to_hex (Digest.string (String.concat "\n--\n" placements)) in
  let dir = Filename.concat work "digests" in
  mkdir_p dir;
  let path = Filename.concat dir key in
  if Sys.file_exists path then begin
    let previous = String.trim (Inputs.read_file path) in
    if previous <> digest then
      problem "determinism: placements of %s differ from an earlier run (%s vs %s)" key digest
        previous
  end
  else if !problems = [] then Inputs.write_file path (digest ^ "\n")

(* The benchmark and the daemon it drives, by content. *)
let build_id ~cli =
  let files = Sys.executable_name :: (if cli = "" then [] else [ cli ]) in
  String.sub (Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file files)))) 0 12

let peak_rss_self () = Serve_load.vm_hwm_mb (Unix.getpid ())

(* Reset the kernel's peak-RSS mark so VmHWM covers the measured part
   only (Linux >= 4.0; ignored elsewhere). *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.major_words, s.Gc.minor_collections)

(* ---- batch workloads ------------------------------------------------- *)

let isum f l = float_of_int (List.fold_left (fun a x -> a + f x) 0 l)

(* Geometric-mean wirelength, mean GRC% and mean |WNS%| of the designs
   that placed cleanly. *)
let quality (outs : Batch.outcome list) =
  let ok = List.filter (fun (o : Batch.outcome) -> o.Batch.ok) outs in
  ( Stats.geomean (List.map (fun (o : Batch.outcome) -> o.Batch.wl_m) ok),
    Stats.mean (List.map (fun (o : Batch.outcome) -> o.Batch.grc_pct) ok),
    Stats.mean (List.map (fun (o : Batch.outcome) -> Float.abs o.Batch.wns_pct) ok) )

let report_failures outs =
  List.iter
    (fun (o : Batch.outcome) ->
      if not o.Batch.ok then problem "%s failed: %s" o.Batch.name o.Batch.error)
    outs

(* Run [f k dir_k] [setup_repeats] times, each from a compacted heap and
   into a fresh directory [dir_k] under [dir] (so no repeat rewrites a
   file the one before it wrote); returns the last result and the
   median time. Every earlier result is passed to [release], untimed. *)
let timed_setup ?(release = ignore) ~dir f =
  let rec go k times =
    let dir_k = Filename.concat dir (Printf.sprintf "set-up-%d" k) in
    mkdir_p dir_k;
    Gc.compact ();
    let t0 = now () in
    let x = f k dir_k in
    let times = (now () -. t0) :: times in
    if k + 1 < setup_repeats then begin
      release x;
      go (k + 1) times
    end
    else begin
      Printf.printf "set-ups %s s\n"
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") times));
      (x, Stats.median times)
    end
  in
  go 0 []

let placements outs = List.map (fun (o : Batch.outcome) -> o.Batch.placement) outs

(* Untraced passes, as many whole ones as come closest to [seconds]: a
   further pass starts only if at least half of it fits. *)
let batch_e2e ~work ~key ~seconds ~config ~designs ~setup_s =
  Gc.compact ();
  reset_peak_rss ();
  let t_start = now () in
  let rec loop acc =
    let outs, wall = Batch.pass ~traced:false ~keep:false ~config designs in
    report_failures outs;
    let acc = (outs, wall) :: acc in
    if now () -. t_start +. (wall /. 2.0) < seconds then loop acc else List.rev acc
  in
  let passes = loop [] in
  let first = fst (List.hd passes) in
  List.iteri
    (fun i (outs, _) ->
      if placements outs <> placements first then
        problem "determinism: pass %d placed differently from pass 0" i)
    passes;
  check_repeat ~work ~key (placements first);
  let walls = List.map snd passes in
  let jobs = List.concat_map (fun (outs, _) -> List.map (fun o -> o.Batch.job_s) outs) passes in
  let flow_s = Stats.median walls in
  let wl, grc, _ = quality first in
  let attempted = List.length jobs in
  let failed =
    List.length
      (List.concat_map (fun (outs, _) -> List.filter (fun o -> not o.Batch.ok) outs) passes)
  in
  List.iter
    (fun (o : Batch.outcome) ->
      Printf.printf "  %-6s wl %.4f m  grc %.3f%%  wns %.3f%%  %.3f s\n" o.Batch.name o.Batch.wl_m
        o.Batch.grc_pct o.Batch.wns_pct o.Batch.job_s)
    first;
  Printf.printf "passes %d, pass walls %s s\n" (List.length walls)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  ( [ m "flow_s" "s" flow_s; m "setup_s" "s" setup_s; m "peak_rss_mb" "MB" (peak_rss_self ());
      m "wl_geo_m" "m" wl; m "grc_pct_mean" "%" grc;
      m "job_p50_s" "s" (Stats.quantile 0.5 jobs); m "job_p90_s" "s" (Stats.quantile 0.9 jobs);
      m "jobs_per_min" "1/min" (float_of_int (List.length designs) *. 60.0 /. flow_s) ],
    attempted, failed )

let kernel_metrics ~seed ~config (o : Batch.outcome option) =
  let res =
    match o with
    | Some { Batch.kept = Some { Batch.result = { Hidap.top = Some snap; die; _ }; _ }; _ } ->
      Kernels.run ~seed ~config ~die snap
    | _ -> []
  in
  if res = [] then problem "kernels: no top-level instance with two or more blocks";
  List.concat_map
    (fun name ->
      let med, mad =
        match List.find_opt (fun (n, _, _) -> n = name) res with
        | Some (_, med, mad) -> (med, mad)
        | None -> (nan, nan)
      in
      [ m name "ns" med; m (name ^ "_mad") "ns" mad ])
    Kernels.names

let zero_serve_layers =
  [ m "serve.submit_ms" "ms" 0.0; m "serve.queue_wait_s" "s" 0.0; m "serve.service_s" "s" 0.0;
    m "serve.result_ms" "ms" 0.0; m "serve.rejected" "count" 0.0; m "serve.retried" "count" 0.0;
    m "serve.worker_lost" "count" 0.0; m "serve.gen_lag_s" "s" 0.0;
    m "ckpt.snapshots_per_job" "count" 0.0; m "ckpt.bytes_per_job" "bytes" 0.0 ]

(* One untraced pass (the reference), one traced replay pass that must
   match it byte for byte, the layer probes and the SA kernels. *)
let batch_layers ~seed ~config ~designs ~kernel_design ~qor =
  let ref_outs, ref_wall = Batch.pass ~traced:false ~keep:false ~config designs in
  report_failures ref_outs;
  Spans.recording := true;
  Parexec.reset_pool_stats ();
  let w0, c0 = gc_counts () in
  let outs, wall = Batch.pass ~traced:true ~keep:true ~config designs in
  let w1, c1 = gc_counts () in
  let ps = Parexec.pool_stats () in
  report_failures outs;
  List.iter2
    (fun (a : Batch.outcome) (b : Batch.outcome) ->
      if a.Batch.placement <> b.Batch.placement then
        problem "replay identity: %s stage-by-stage placement differs from Hidap.place"
          a.Batch.name)
    ref_outs outs;
  let kept = List.filter_map (fun (o : Batch.outcome) -> o.Batch.kept) outs in
  Batch.probe kept;
  let kernels =
    kernel_metrics ~seed ~config
      (List.find_opt (fun (o : Batch.outcome) -> o.Batch.name = kernel_design) outs)
  in
  Spans.recording := false;
  let coverage = Spans.min_child_coverage "pass" in
  if coverage < 0.95 then problem "trace coverage %.1f%% < 95%% of a pass" (coverage *. 100.0);
  let fp_s = Spans.total "floorplan.run" in
  let sa_moves = isum (fun (o : Batch.outcome) -> o.Batch.sa_moves) outs in
  let slots = Array.length ps.Parexec.workers in
  let busy = Array.fold_left (fun a w -> a +. w.Parexec.busy_us) 0.0 ps.Parexec.workers in
  let wsum f = float_of_int (Array.fold_left (fun a w -> a + f w) 0 ps.Parexec.workers) in
  let attempted = 2 * List.length designs in
  let failed = List.length (List.filter (fun o -> not o.Batch.ok) (ref_outs @ outs)) in
  ( [ m "hnl.parse_s" "s" (Spans.total "hnl.parse");
      m "netlist.elaborate_s" "s" (Spans.total "netlist.elaborate");
      m "netlist.cells" "count" (isum (fun (o : Batch.outcome) -> o.Batch.cells) outs);
      m "netlist.nets" "count" (isum (fun (o : Batch.outcome) -> o.Batch.nets) outs);
      m "hier.tree_build_s" "s" (Spans.total "hier.tree_build");
      m "seqgraph.build_s" "s" (Spans.total "seqgraph.build");
      m "seqgraph.nodes" "count" (isum (fun (o : Batch.outcome) -> o.Batch.seq_nodes) outs);
      m "shape_curves.generate_s" "s" (Spans.total "shape_curves.generate");
      m "port_plan.make_s" "s" (Spans.total "port_plan.make");
      m "floorplan.run_s" "s" fp_s;
      m "floorplan.instances" "count" (isum (fun (o : Batch.outcome) -> o.Batch.instances) outs);
      m "floorplan.sa_moves" "count" sa_moves;
      m "anneal.moves_per_s" "1/s" (sa_moves /. fp_s);
      m "flipping.run_s" "s" (Spans.total "flipping.run");
      m "parexec.utilization" "ratio"
        (if slots = 0 || ps.Parexec.wall_us <= 0.0 then 0.0
         else busy /. (float_of_int slots *. ps.Parexec.wall_us));
      m "parexec.tasks" "count" (wsum (fun w -> w.Parexec.tasks));
      m "parexec.steals" "count" (wsum (fun w -> w.Parexec.steals));
      m "evalflow.measure_s" "s" (Spans.total "evalflow.measure");
      m "cellplace.run_s" "s" (Spans.total "cellplace.run");
      m "congestion.estimate_s" "s" (Spans.total "congestion.estimate");
      m "sta.analyze_s" "s" (Spans.total "sta.analyze");
      m "gc.major_words" "words" (w1 -. w0);
      m "gc.minor_collections" "count" (float_of_int (c1 - c0));
      m "trace_overhead_pct" "%" ((wall -. ref_wall) /. ref_wall *. 100.0);
      m "trace.coverage_pct" "%" (coverage *. 100.0) ]
    @ (if qor then
         let _, _, wns = quality outs in
         [ m "qor.wns_pct_mean" "%" wns ]
       else [])
    @ kernels,
    attempted, failed, placements outs )

let batch ~work ~dir ~key ~seconds ~trace ~seed ~params ~kernel_design =
  let designs, setup_s = timed_setup ~dir (fun _ dir -> Inputs.write ~dir params) in
  let config = Batch.config ~jobs:2 seed in
  if trace then
    let layers, attempted, failed, pl =
      batch_layers ~seed ~config ~designs ~kernel_design ~qor:true
    in
    check_repeat ~work ~key pl;
    (layers @ zero_serve_layers, attempted, failed)
  else batch_e2e ~work ~key ~seconds ~config ~designs ~setup_s

(* ---- serve-small ----------------------------------------------------- *)

(* Length of the union of intervals: the wall time during which at
   least one job was running. *)
let union_length intervals =
  fst
    (List.fold_left
       (fun (total, reach) (a, b) ->
         let a = Float.max a reach in
         if b > a then (total +. (b -. a), b) else (total, reach))
       (0.0, neg_infinity) (List.sort compare intervals))

let serve ~work ~dir ~key ~seconds ~trace ~seed ~cli =
  let n = max 1 (int_of_float (Float.round (serve_rate *. seconds))) in
  let params = Inputs.serve_params seed ~n in
  let (designs, texts, d), setup_s =
    timed_setup ~dir
      ~release:(fun (_, _, d) -> Serve_load.stop d)
      (fun k dir ->
        let designs = Inputs.write ~dir params in
        let texts = List.map (fun (x : Inputs.design) -> Inputs.read_file x.Inputs.path) designs in
        (designs, texts, Serve_load.start ~cli ~dir ~tag:(Printf.sprintf "d%d" k)))
  in
  let offsets = Serve_load.schedule ~seed ~rate:serve_rate ~n in
  let t_start = now () +. 0.05 in
  let jobs =
    Array.of_list
      (List.map2
         (fun (design, text) off ->
           { Serve_load.design; text; due = t_start +. off; sent = nan; accepted = nan;
             id = None; rejected = false; running = nan; terminal = nan;
             state = Serve.Proto.Pending; detail = "" })
         (List.combine designs texts) offsets)
  in
  let delta = Serve_load.run ~d ~seed ~jobs in
  let jl = Array.to_list jobs in
  let done_ = List.filter (fun j -> j.Serve_load.state = Serve.Proto.Done) jl in
  List.iter
    (fun (j : Serve_load.job) ->
      if j.Serve_load.state <> Serve.Proto.Done then
        problem "serve: job %s ended %s" j.Serve_load.design.Inputs.name
          (if j.Serve_load.rejected then "rejected"
           else if Float.is_nan j.Serve_load.terminal then "unfinished"
           else
             Printf.sprintf "%s (%s)"
               (Serve.Proto.state_to_string j.Serve_load.state)
               j.Serve_load.detail))
    jl;
  let fetched =
    List.filter_map
      (fun (j : Serve_load.job) ->
        match j.Serve_load.id with
        | None -> None
        | Some id -> (
          match Serve_load.fetch ~d j id with
          | Ok f ->
            if not f.Serve_load.audit_ok then
              problem "serve: job %s placement fails the audit" j.Serve_load.design.Inputs.name;
            Some (id, f)
          | Error e ->
            problem "serve: job %s: %s" j.Serve_load.design.Inputs.name e;
            None))
      done_
  in
  let fs = List.map snd fetched in
  (* The job set depends on the run length as well as the seed. *)
  check_repeat ~work ~key:(Printf.sprintf "%s-%d-jobs" key n)
    (List.map (fun f -> f.Serve_load.placement) fs);
  let ck_bytes = List.map (fun (id, _) -> float_of_int (Serve_load.ckpt_bytes ~d id)) fetched in
  let daemon_rss = Serve_load.vm_hwm_mb d.Serve_load.pid in
  Serve_load.stop d;
  List.iter
    (fun (j : Serve_load.job) ->
      let p = j.Serve_load.design.Inputs.params in
      Printf.printf "  %s  macros %d cells %4d  wait %.3f s  service %.3f s  latency %.3f s\n"
        j.Serve_load.design.Inputs.name p.Circuitgen.Gen.n_macros p.Circuitgen.Gen.target_cells
        (j.Serve_load.running -. j.Serve_load.accepted)
        (j.Serve_load.terminal -. j.Serve_load.running)
        (j.Serve_load.terminal -. j.Serve_load.due))
    jl;
  (* A job that did not finish counts as infinitely late. *)
  let lat =
    List.map
      (fun (j : Serve_load.job) ->
        if j.Serve_load.state = Serve.Proto.Done then j.Serve_load.terminal -. j.Serve_load.due
        else infinity)
      jl
  in
  let failed = n - List.length (List.filter (fun f -> f.Serve_load.audit_ok) fs) in
  let per_job f = List.map f done_ in
  (* The daemon's own work, independent of the arrival schedule: the
     worker-seconds of the run's jobs, and jobs per minute of the wall
     time during which at least one worker was busy. *)
  let worker_s =
    List.fold_left ( +. ) 0.0
      (per_job (fun j -> j.Serve_load.terminal -. j.Serve_load.running))
  in
  let busy_s = union_length (per_job (fun j -> (j.Serve_load.running, j.Serve_load.terminal))) in
  Printf.printf "serve: %d jobs at %.3f jobs/s, %d done, %.3f worker-s, busy %.3f s\n" n serve_rate
    (List.length done_) worker_s busy_s;
  let wl = Stats.geomean (List.map (fun f -> f.Serve_load.wl_m) fs) in
  if trace then begin
    let layers =
      [ m "serve.submit_ms" "ms"
          (Stats.median (per_job (fun j -> (j.Serve_load.accepted -. j.Serve_load.sent) *. 1000.0)));
        m "serve.queue_wait_s" "s"
          (Stats.median (per_job (fun j -> j.Serve_load.running -. j.Serve_load.accepted)));
        m "serve.service_s" "s"
          (Stats.median (per_job (fun j -> j.Serve_load.terminal -. j.Serve_load.running)));
        m "serve.result_ms" "ms" (Stats.median (List.map (fun f -> f.Serve_load.result_ms) fs));
        m "serve.rejected" "count" (float_of_int delta.Serve_load.rejected);
        m "serve.retried" "count" (float_of_int delta.Serve_load.retried);
        m "serve.worker_lost" "count" (float_of_int delta.Serve_load.worker_lost);
        m "serve.gen_lag_s" "s"
          (List.fold_left (fun a j -> Float.max a (j.Serve_load.sent -. j.Serve_load.due)) 0.0 jl);
        m "ckpt.snapshots_per_job" "count"
          (Stats.mean (List.map (fun f -> float_of_int f.Serve_load.snapshots) fs));
        m "ckpt.bytes_per_job" "bytes" (Stats.mean ck_bytes);
        m "qor.wns_pct_mean" "%" (Stats.mean (List.map (fun f -> Float.abs f.Serve_load.wns_pct) fs)) ]
    in
    (* Per-layer breakdown of the work the daemon's workers do, on the
       first designs of the same run, placed in-process at jobs 1. *)
    let sample = List.filteri (fun i _ -> i < serve_traced_designs) designs in
    let kernel_design =
      let largest =
        List.fold_left
          (fun (b : Inputs.design) (x : Inputs.design) ->
            if x.Inputs.params.Circuitgen.Gen.n_macros > b.Inputs.params.Circuitgen.Gen.n_macros
            then x
            else b)
          (List.hd sample) sample
      in
      largest.Inputs.name
    in
    let batch_layers, attempted, failed_b, _ =
      batch_layers ~seed ~config:(Batch.config ~jobs:1 seed) ~designs:sample ~kernel_design
        ~qor:false
    in
    (batch_layers @ layers, n + attempted, failed + failed_b)
  end
  else
    ( [ m "flow_s" "s" worker_s; m "setup_s" "s" setup_s; m "peak_rss_mb" "MB" daemon_rss;
        m "wl_geo_m" "m" wl;
        m "grc_pct_mean" "%" (Stats.mean (List.map (fun f -> f.Serve_load.grc_pct) fs));
        m "job_p50_s" "s" (Stats.quantile 0.5 lat); m "job_p90_s" "s" (Stats.quantile 0.9 lat);
        m "jobs_per_min" "1/min" (float_of_int (List.length done_) *. 60.0 /. busy_s) ],
      n, failed )

(* ---- main ------------------------------------------------------------ *)

let json_result ~correct ~attempted ~failed metrics =
  let num v = Printf.sprintf "%.17g" v in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (num x.value)
                      x.unit_)
          metrics))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let cli = ref "" and work = ref ".bench_work" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME suite-place | serve-small");
      ("--seed", Arg.Set_int seed, "N workload seed (0 reproduces the committed suite)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--cli", Arg.Set_string cli, "PATH hidap_cli.exe, the daemon for serve-small");
      ("--work", Arg.Set_string work, "DIR scratch directory (default .bench_work)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hbench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* A terminated run still stops its daemon (the at_exit handler). *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let key = Printf.sprintf "%s-%d" !workload !seed in
  let repeat_key = Printf.sprintf "%s-%s" key (build_id ~cli:!cli) in
  let dir = Filename.concat !work (Printf.sprintf "run-%s-%d" key (Unix.getpid ())) in
  mkdir_p dir;
  let traced = !trace = 1 in
  let metrics, attempted, failed =
    (* A failed run keeps its inputs, daemon logs and job state. *)
    Fun.protect ~finally:(fun () ->
        if !problems = [] then rm_rf dir else Printf.printf "kept %s for inspection\n" dir)
    @@ fun () ->
    match !workload with
    | "suite-place" ->
      batch ~work:!work ~dir ~key:repeat_key ~seconds:!seconds ~trace:traced ~seed:!seed
        ~params:(Inputs.suite_params !seed) ~kernel_design:"c5"
    | "serve-small" ->
      if !cli = "" || not (Sys.file_exists !cli) then failwith "serve-small needs --cli";
      serve ~work:!work ~dir ~key:repeat_key ~seconds:!seconds ~trace:traced ~seed:!seed
        ~cli:!cli
    | w -> failwith ("unknown workload " ^ w)
  in
  if traced then Spans.write_chrome (Filename.concat !work ("trace-" ^ key ^ ".json"));
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then problem "metric %s is not finite" x.name;
      Printf.printf "%-28s %.6g %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf "%-28s %.6g (failed %d of %d attempted)\n" "fail_frac"
    (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let metrics =
    List.map (fun x -> if Float.is_finite x.value then x else { x with value = -1.0 }) metrics
  in
  let correct = problems = [] in
  print_endline (json_result ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
