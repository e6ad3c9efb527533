(* What every workload shares: seeds, set-up timing, the environment
   record, the traced phases and the per-layer metrics they yield, and
   the result line. *)

module Json = Ric_text.Json
module Gen = Ric_workloads.Gen

type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let metric name unit_ value = { name; value; unit_ }

(* Generator seeds for a run's inputs, all derived from --seed; [gen]
   keeps only the low 30 bits, so keep them distinct there. *)
let derive seed i = 1 + ((seed * 7919 + i * 104729) land 0x3FFFFFF)

let strf fmt = Printf.ksprintf (fun v -> Json.Str v) fmt

let ok_reply j = Harness.bool_member "ok" j = Some true

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

(* Emit a [ric gen] scenario into the run directory; returns its path. *)
let gen_file name family ~tuples ~seed ~rung =
  let path = Ricd.path name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Gen.emit family ~tuples ~seed ~rung (output_string oc));
  path

let input ~name ~family ~seed ~size =
  Json.Obj
    [
      ("name", Json.Str name);
      ("family", Json.Str family);
      ("gen_seed", Json.Int seed);
      ("size", Json.Int size);
    ]

(* Open a scenario file in ricd and parse it here too (for the oracle);
   [opened] collects the open requests, for the traced run's mirror. *)
let open_path c opened path =
  let req = Json.Obj [ ("op", Json.Str "open"); ("path", Json.Str path) ] in
  let r = Ricd.call_exn c req in
  match Harness.str_member "session" r with
  | Some id ->
    opened := (id, req) :: !opened;
    (id, Ric_text.Scenario.load path)
  | None -> failwith ("open failed: " ^ Json.to_string r)

(* Set up three times, each anew with a fresh daemon, and keep the
   last; every earlier daemon is stopped before the next set-up
   starts.  Returns the kept context and the median time. *)
let timed_setups ~setup ~teardown =
  let rec go i acc =
    let t0 = Unix.gettimeofday () in
    let ctx = setup () in
    let dt = Unix.gettimeofday () -. t0 in
    if i + 1 < 3 then begin
      teardown ctx;
      go (i + 1) (dt :: acc)
    end
    else (ctx, Harness.median (dt :: acc))
  in
  go 0 []

let search_default stats =
  match Harness.str_member "search_default" stats with
  | Some s ->
    (match Ric_complete.Search_mode.of_string s with Ok m -> m | Error _ -> Ric_complete.Search_mode.Seq)
  | None -> Ric_complete.Search_mode.Seq

let environment ~workload ~seed ~seconds ~trace ~(daemon : Ricd.t) ~stats ~journal ~inputs
    ~samples =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ( "ricd",
        Json.Obj
          [
            ("argv", Json.List (List.map (fun a -> Json.Str a) daemon.Ricd.args));
            ("domains", Json.Int Ricd.domains);
            ("queue", Json.Int Ricd.queue);
            ( "search_default",
              Json.Str (Option.value ~default:"?" (Harness.str_member "search_default" stats)) );
            ("journal", match journal with Some p -> Json.Str p | None -> Json.Null);
            ( "journal_flush",
              Json.Str (if journal = None then "none" else "flush per record") );
          ] );
      ( "RIC_SEARCH_FORCE_WORKERS",
        Json.Str (Option.value ~default:"unset" (Sys.getenv_opt "RIC_SEARCH_FORCE_WORKERS")) );
      ("inputs", Json.List inputs);
      ("samples", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) samples));
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end figures of an untraced run *)

let success_pct ~attempted ~failed =
  100. *. float_of_int (attempted - failed) /. float_of_int (max 1 attempted)

(* Daemon CPU per successful reply over a window, in ms. *)
let cpu_ms_per_op ~cpu_s ~ok = if ok = 0 then 0. else cpu_s *. 1000. /. float_of_int ok

(* A closed loop over a sequence that repeats every [period] requests,
   sampling ricd's CPU time after each reply and pacing calibration
   slices between replies.  Returns the run, the daemon CPU per reply
   over the whole periods it completed, so that where the window
   happens to end does not change the request mix the figure averages
   over (all replies when not one period fits), and the calibration. *)
let closed_loop_cpu c (daemon : Ricd.t) ~seconds ~period next =
  let calib = Calib.create () in
  let cpu0 = Ricd.cpu_s daemon in
  let marks = ref [] in
  let r =
    Loop.closed_loop c ~seconds next ~after:(fun _ ~t0:_ ~t1:_ _ ->
        marks := Ricd.cpu_s daemon :: !marks;
        Calib.pace calib)
  in
  let marks = Array.of_list (List.rev !marks) in
  let n = Array.length marks in
  let whole = n / period * period in
  let ops = if whole > 0 then whole else n in
  let first = List.filteri (fun i _ -> i < ops) r.Loop.samples in
  let ok = List.length (List.filter (fun s -> s.Loop.outcome = Harness.Ok_reply) first) in
  let cpu = if ops = 0 then 0. else marks.(ops - 1) -. cpu0 in
  (r, cpu_ms_per_op ~cpu_s:cpu ~ok, calib)

(* The two gated figures the calibration scales to the reference host,
   and what they are made of, for the detail line.  Set-up time is
   scaled too: it is mostly ricd and the oracle computing, and across
   sets of runs its median moved with the host's load by up to 70%. *)
let calibrated calib ~setup_s ~cpu_per_op =
  ( metric "setup_s" "s" (Calib.scale_wall calib setup_s),
    metric "norm_cpu_ms_per_op" "ms" (Calib.scale calib cpu_per_op),
    [
      metric "setup_raw_s" "s" setup_s;
      metric "cpu_ms_per_op" "ms" cpu_per_op;
      metric "calib_slice_ms" "ms" (Calib.slice_ms calib);
      metric "calib_slice_wall_ms" "ms" (Calib.slice_wall_ms calib);
      metric "steal_pct" "%" (Calib.steal_pct calib);
    ] )

let p50 xs = if xs = [] then 0. else Harness.median xs

let p99 xs = if xs = [] then 0. else Harness.quantile xs 0.99

let tail xs = if xs = [] then 0. else fst (Harness.tail xs)

let tail_pct xs = if xs = [] then 0. else snd (Harness.tail xs)

(* Every timed request of a run, for looking behind the medians. *)
let write_samples file (r : Loop.run) =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "op,tag,latency_ms,outcome,done_at_s\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%s,%s,%.3f,%s,%.3f\n" s.Loop.s_op s.Loop.s_tag s.Loop.latency_ms
            (Harness.outcome_name s.Loop.outcome) s.Loop.done_at)
        r.Loop.samples)

(* ------------------------------------------------------------------ *)
(* The traced run *)

type traced = {
  untraced : Loop.run;  (** phase A: the sequence without spans *)
  traced : Loop.run;  (** phase B: the same sequence, traced *)
  before : Json.t;  (** stats bracketing phase B *)
  after : Json.t;
  root_s : float;  (** summed round trips of phase B *)
  covered_s : float;  (** summed json + protocol + handle spans *)
  transport_us : float list;  (** per request: round trip minus those *)
  decider_s : float;  (** summed daemon elapsed_us of uncached decides *)
  miner_s : float;  (** summed daemon elapsed_us of uncached mines *)
  revalidated : int;  (** from insert replies *)
}

let decide_ops = [ "rcdp"; "rcqp"; "audit" ]

(* Phase A replays the workload's sequence untraced, phase B replays
   the same sequence again with a root span per round trip and the
   in-process layer calls after it.  [fresh] restarts the sequence. *)
let traced_phases ~socket ~seconds ~mirror ~fresh =
  let c = Loop.connect socket in
  let half = seconds /. 2. in
  let untraced = Loop.closed_loop c ~seconds:half (fresh ()) in
  let before = Ricd.stats c in
  let root_s = ref 0. and covered_s = ref 0. and transport = ref [] in
  let decider_s = ref 0. and miner_s = ref 0. and revalidated = ref 0 in
  let n = ref 0 in
  let next =
    let gen = fresh () in
    fun () ->
      incr n;
      let r = gen () in
      { r with Loop.json = Ric_service.Protocol.with_req_id r.Loop.json (Printf.sprintf "pb-%d" !n) }
  in
  let after (r : Loop.req) ~t0 ~t1 reply =
    match reply with
    | Error _ -> ()
    | Ok j ->
      let req_id = Option.value ~default:"" (Harness.str_member "req_id" r.Loop.json) in
      let root =
        Spans.add "request" ~t0 ~t1
          ~attrs:[ ("req_id", Json.Str req_id); ("op", Json.Str r.Loop.op) ]
      in
      let covered = Mirror.replay mirror ~root r.Loop.json j in
      root_s := !root_s +. (t1 -. t0);
      covered_s := !covered_s +. covered;
      transport := ((t1 -. t0 -. covered) *. 1e6) :: !transport;
      let elapsed () =
        float_of_int (Option.value ~default:0 (Harness.int_member "elapsed_us" j)) /. 1e6
      in
      if Harness.bool_member "cached" j = Some false then begin
        if List.mem r.Loop.op decide_ops then decider_s := !decider_s +. elapsed ();
        if r.Loop.op = "mine" then miner_s := !miner_s +. elapsed ()
      end;
      (match Harness.member "cache" j with
       | Some cache -> revalidated := !revalidated + Option.value ~default:0 (Harness.int_member "revalidated" cache)
       | None -> ())
  in
  let traced = Loop.closed_loop ~after c ~seconds:half next in
  let after_stats = Ricd.stats c in
  Ricd.disconnect c;
  {
    untraced;
    traced;
    before;
    after = after_stats;
    root_s = !root_s;
    covered_s = !covered_s;
    transport_us = !transport;
    decider_s = !decider_s;
    miner_s = !miner_s;
    revalidated = !revalidated;
  }

(* How much longer the traced phase took than the untraced one to get
   through the same first N requests. *)
let overhead_pct t =
  let a = Array.of_list t.untraced.Loop.samples and b = Array.of_list t.traced.Loop.samples in
  let n = min (Array.length a) (Array.length b) in
  if n < 2 then 0.
  else
    (* done_at of request N+1 in phase B includes request N's
       in-process calls; compare up to the last common request *)
    let ta = a.(n - 1).Loop.done_at and tb = b.(n - 1).Loop.done_at in
    100. *. ((tb /. ta) -. 1.)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

let per_sec count secs = if secs <= 0. then 0. else float_of_int count /. secs

(* Every per-layer metric; what a workload's requests never touch
   reads 0.  [load] is the phase whose queueing counts (the open-loop
   phase for serve) and [queue_stats] brackets it. *)
let layer_metrics t ~(mirror : Mirror.t) ~queue_stats:(qb, qa) ~(load : Loop.run) =
  let d name = Ricd.counter t.after name - Ricd.counter t.before name in
  let ms name = Spans.median_of name 1e3 and us name = Spans.median_of name 1e6 in
  let delta = d "ric_incremental_delta_checks_total"
  and full = d "ric_incremental_full_checks_total" in
  let builds = d "ric_match_index_builds_total" and reuses = d "ric_match_index_reuses_total" in
  let visited = d "ric_rcdp_valuations_visited_total"
  and pruned = d "ric_rcdp_branches_pruned_total" in
  let steps = d "ric_search_steps_total" in
  let cache k = Ricd.cache_field t.after k - Ricd.cache_field t.before k in
  [
    metric "text.parse_ms" "ms" (ms "text.parse");
    metric "text.journal_ms" "ms" (ms "text.journal");
    metric "text.journal_bytes_per_tuple" "B" (if mirror.Mirror.journal_tuples = 0 then 0. else float_of_int mirror.Mirror.journal_bytes /. float_of_int mirror.Mirror.journal_tuples);
    metric "text.json_us" "us" (us "text.json");
    metric "relational.add_ms" "ms" (ms "relational.add");
    metric "relational.intern_entries" "count" (float_of_int (Ricd.counter t.after "ric_intern_entries"));
    metric "relational.intern_growths" "count" (float_of_int (d "ric_intern_growth_total"));
    metric "constraints.closure_ms" "ms" (ms "constraints.closure");
    metric "constraints.delta_checks" "count" (float_of_int delta);
    metric "constraints.full_checks" "count" (float_of_int full);
    metric "constraints.delta_share" "ratio" (ratio delta full);
    metric "query.eval_ms" "ms" (ms "query.eval");
    metric "query.index_builds" "count" (float_of_int builds);
    metric "query.index_reuse_ratio" "ratio" (ratio reuses builds);
    metric "query.memo_evictions" "count" (float_of_int (d "ric_kernel_memo_evictions_total"));
    metric "complete.rcdp_ms" "ms" (ms "complete.rcdp");
    metric "complete.rcqp_ms" "ms" (ms "complete.rcqp");
    metric "complete.audit_ms" "ms" (ms "complete.audit");
    metric "complete.steps" "count" (float_of_int steps);
    metric "complete.steps_per_s" "1/s" (per_sec steps t.decider_s);
    metric "complete.prune_ratio" "ratio" (ratio pruned visited);
    metric "complete.timeouts" "count" (float_of_int (d "ric_decide_timeouts_total"));
    metric "mining.mine_ms" "ms" (ms "mining.mine");
    metric "mining.candidates_per_s" "1/s" (per_sec (d "ric_mine_candidates_total") t.miner_s);
    metric "mining.accept_ratio" "ratio"
      (if mirror.Mirror.mine_evaluated = 0 then 0.
       else float_of_int mirror.Mirror.mine_accepted /. float_of_int mirror.Mirror.mine_evaluated);
    metric "server.protocol_us" "us" (us "server.protocol");
    metric "server.handle_us" "us" (us "server.handle");
    metric "server.transport_us" "us" (p50 t.transport_us);
    metric "server.session_open_ms" "ms" (ms "server.session_open");
    metric "server.insert_ms" "ms" (ms "server.insert");
    metric "server.cache_hit_ratio" "ratio" (ratio (cache "hits") (cache "misses"));
    metric "server.cache_carried" "count" (float_of_int (cache "carried"));
    metric "server.cache_revalidated" "count" (float_of_int t.revalidated);
    metric "server.cache_dropped" "count" (float_of_int (cache "dropped"));
    metric "server.queue_wait_p99_ms" "ms"
      (Ricd.histogram_p99_ms ~before:qb ~after:qa "ric_server_queue_wait_seconds");
    metric "server.shed" "count"
      (float_of_int (Ricd.counter qa "ric_server_shed_total" - Ricd.counter qb "ric_server_shed_total"));
    metric "trace.coverage_pct" "%" (if t.root_s = 0. then 0. else 100. *. t.covered_s /. t.root_s);
    metric "trace.overhead_pct" "%" (overhead_pct t);
    metric "loadgen.lag_p99_ms" "ms" (p99 load.Loop.lags_ms);
    metric "loadgen.conn_wait_p99_ms" "ms" (p99 load.Loop.conn_waits_ms);
    metric "loadgen.backlog_peak" "count" (float_of_int load.Loop.backlog_peak);
  ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : metric list;  (** the workload's own figures, printed beside *)
  env : Json.t;
}

(* The traced run of a workload whose set-up is done: mirror the
   sessions set-up opened, run [prelude] (serve's open-loop phase,
   which then owns a third of the window and its queueing and lag
   figures) and the two traced phases, write the spans to
   [_perfbench/<workload>-trace.jsonl], and report every per-layer
   metric. *)
let traced_run ~workload ~seed ~seconds ~(daemon : Ricd.t) ~journal ~inputs ~opened ~fresh
    ?(prelude = fun () -> None) ?(warm = ignore) ~teardown () =
  let c = Loop.connect daemon.Ricd.socket in
  let stats = Ricd.stats c in
  Ricd.disconnect c;
  let pre = prelude () in
  let mirror =
    Mirror.create ~search:(search_default stats)
      ~journal_path:(Ricd.path (workload ^ "-mirror.journal"))
  in
  List.iter (fun (id, req) -> Mirror.adopt mirror ~daemon_id:id req) opened;
  warm mirror;
  let share = if pre = None then 1. else 2. /. 3. in
  let t =
    traced_phases ~socket:daemon.Ricd.socket ~seconds:(float_of_int seconds *. share) ~mirror ~fresh
  in
  Mirror.close mirror;
  Spans.write (Ricd.path (workload ^ "-trace.jsonl"));
  teardown ();
  let runs = t.untraced :: t.traced :: (match pre with Some (r, _, _) -> [ r ] | None -> []) in
  let attempted = List.fold_left (fun n r -> n + List.length r.Loop.samples) 0 runs in
  let failed = List.fold_left (fun n r -> n + Loop.failures r) 0 runs in
  let queue_stats, load =
    match pre with
    | Some (r, before, after) -> ((before, after), r)
    | None -> ((t.before, t.after), t.untraced)
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics = layer_metrics t ~mirror ~queue_stats ~load;
    detail = [];
    env =
      environment ~workload ~seed ~seconds ~trace:true ~daemon ~stats ~journal ~inputs
        ~samples:[ ("traced", List.length t.traced.Loop.samples) ];
  }

(* ------------------------------------------------------------------ *)
(* Output *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_)
         ms)
  ^ "}"

let print r =
  Printf.printf "{\"environment\": %s}\n" (Json.to_string r.env);
  Printf.printf "{\"detail\": %s}\n" (metrics_json r.detail);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    r.correct r.attempted r.failed (metrics_json r.metrics)
