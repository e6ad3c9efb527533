(* serve: independent users, so an open loop: one process offers a
   Poisson stream over two pipelined connections, first at a fixed
   nominal rate, then up a stepped ladder of rates to find the
   capacity.  Small sessions are opened during set-up and the verdict
   cache is warmed, so the mix is mostly cache hits:

   - 85% rcdp/rcqp/audit with the cache on;
   - 8% single-row admissible inserts, which move the session to a new
     epoch and make the cache carry Complete verdicts over and
     revalidate Incomplete counterexamples.  Triple sessions get new
     rows from a fixed pool (never predicate k0, so QT's verdict
     stands); a second crm.ric session gets one of its own rows again
     (Q2 Complete carries, Q0's counterexample revalidates).  Inserts
     never go to sessions with audit keys: an insert drops cached
     audits, and their ~0.5 s recomputation would swamp the mix;
   - 5% open+close churn of a tiny inline scenario;
   - 2% stats. *)

module Json = Ric_text.Json
module Gen = Ric_workloads.Gen
module Scenario = Ric_text.Scenario
open Common

(* Offered rate of the nominal phase: about a fifth of the capacity
   the ladder finds on a quiet 2-core x86_64 host.  Neighbours on a
   shared host can slow it several-fold, and a nominal rate near the
   knee would then measure a saturated queue. *)
let nominal_rps = 250.

(* The capacity search: doubling steps of [coarse_s] from
   [ladder_start_rps] until one fails, then steps of [ladder_growth]
   and [step_s] up from the last coarse step that held. *)
let ladder_start_rps = 25.

let coarse_s = 1.

let ladder_growth = 1.15

let step_s = 1.5

(* Latency limit on each step's tail (its p99), and the generator lag
   past which a step (or the nominal phase) no longer measures the
   daemon.  An admissible insert costs ~6 ms of service time on a
   quiet host (the closure re-check and the cache migration, under the
   service lock), so the tail sits at 12-16 ms well below saturation:
   the 5 ms first proposed fails at any rate, and a limit just above
   16 ms fails steps at random on a host stall.  At 50 ms the crossing
   falls where the queue starts to grow and the tail climbs steeply. *)
let limit_ms = 50.

let lag_limit_ms = 50.

let nominal_share = 0.6

let triple_tuples = 1_000

let insert_pool = 256

let churn_source =
  "schema R(a). master M(a). rows M { (x) (y) (z) }. rows R { (x) }.\n\
   constraint B(a) :- R(a) => M[0].\n\
   query Q(a) :- R(a)."

type key = {
  kind : string;
  session : string;
  query : string;
  expect : string;
}

type target = {
  tsession : string;
  rows : Json.t list array;  (** admissible single rows *)
  rel : string;
}

type ctx = {
  daemon : Ricd.t;
  opened : (string * Json.t) list;
  keys : key array;
  targets : target array;
  inputs : Json.t list;
}

let setup ~seed () =
  Ricd.ensure_run_dir ();
  let triples =
    List.init 3 (fun j ->
        let gseed = derive seed (30 + j) in
        (gen_file (Printf.sprintf "serve-triple-%d.ric" j) Gen.Triple ~tuples:triple_tuples ~seed:gseed ~rung:0, gseed))
  in
  let scenarios = [ "scenarios/crm.ric"; "scenarios/supply_chain.ric"; "scenarios/dirty_support.ric" ] in
  let daemon = Ricd.spawn "serve" in
  let c = Loop.connect daemon.Ricd.socket in
  let opened = ref [] in
  let open_path = open_path c opened in
  let keys_of kinds (session, (sc : Scenario.t)) =
    List.concat_map
      (fun (query, _) ->
        List.map
          (fun kind -> ({ kind; session; query; expect = "" }, fun () -> Oracle.verdict_of kind sc query))
          kinds)
      sc.Scenario.queries
  in
  let scen = List.map open_path scenarios in
  let crm_fed = open_path (List.hd scenarios) in
  let trip = List.map (fun (p, _) -> open_path p) triples in
  (* audit and rcqp keys only where they are cheap: set-up decides
     every key twice (oracle and warm-up) *)
  let cheap (k, _) = List.mem k.query [ "Q2"; "WhereIsO1" ] in
  let pending =
    List.concat_map (fun sc -> keys_of [ "rcdp" ] sc @ List.filter cheap (keys_of [ "audit" ] sc)) scen
    @ keys_of [ "rcqp" ] (List.nth scen 2)
    @ List.concat_map (keys_of [ "rcdp" ]) (crm_fed :: trip)
  in
  (* warm the verdict cache (every key once, computed by ricd) while
     the oracle computes the same keys here *)
  let warm =
    Domain.spawn (fun () ->
        let w = Loop.connect daemon.Ricd.socket in
        Fun.protect
          ~finally:(fun () -> Ricd.disconnect w)
          (fun () ->
            List.map
              (fun (k, _) ->
                Ricd.call_exn w (Oracle.decide_req ~nocache:false k.kind ~session:k.session ~query:k.query))
              pending))
  in
  let expects = Oracle.parallel (List.map snd pending) in
  let keys = List.map2 (fun (k, _) expect -> { k with expect }) pending expects in
  List.iter2
    (fun k r ->
      if not (Oracle.check_verdict k.kind k.expect r) then
        failwith ("serve: warm-up verdict differs from the oracle: " ^ Json.to_string r))
    keys (Domain.join warm);
  Ricd.disconnect c;
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let entities = triple_tuples / 10 in
  let targets =
    List.map
      (fun (id, _) ->
        {
          tsession = id;
          rel = "T";
          rows =
            Array.init insert_pool (fun _ ->
                let r = Random.State.int rng in
                [ strf "e%d" (r entities); strf "k%d" (1 + r 15); strf "e%d" (r entities) ]);
        })
      trip
    @ [ { tsession = fst crm_fed; rel = "Supt"; rows = [| [ strf "e0"; strf "d0"; strf "c0" ] |] } ]
  in
  let inputs =
    List.map (fun (p, s) -> input ~name:(Filename.basename p) ~family:"triple" ~seed:s ~size:triple_tuples) triples
    @ List.map (fun p -> input ~name:p ~family:"scenario" ~seed:0 ~size:0) scenarios
  in
  {
    daemon;
    opened = List.rev !opened;
    keys = Array.of_list keys;
    targets = Array.of_list targets;
    inputs;
  }

let teardown ctx = Ricd.stop ctx.daemon

(* The mix is exact in every deck of 100 requests, which the seed
   shuffles: decides take the keys in turn and inserts the targets, so
   no run draws more of the costly requests than another. *)
let deck = [ (`Decide, 85); (`Insert, 8); (`Churn, 5); (`Stats, 2) ]

(* The request stream.  A churn open's close goes out as the stream's
   next request once the open has been answered. *)
let sequence ~seed ctx =
  let rng = Random.State.make [| seed; 0x5e77e |] in
  let closes = Queue.create () in
  let slots = Array.of_list (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) deck) in
  let pos = ref (Array.length slots) and key = ref 0 and target = ref 0 in
  let take () =
    if !pos = Array.length slots then begin
      for i = Array.length slots - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = slots.(i) in
        slots.(i) <- slots.(j);
        slots.(j) <- t
      done;
      pos := 0
    end;
    incr pos;
    slots.(!pos - 1)
  in
  fun () ->
    match Queue.take_opt closes with
    | Some id ->
      Loop.req "close" (Json.Obj [ ("op", Json.Str "close"); ("session", Json.Str id) ]) ~check:ok_reply
    | None -> (
      match take () with
      | `Decide ->
        let k = ctx.keys.(!key mod Array.length ctx.keys) in
        incr key;
        Loop.req k.kind
          (Oracle.decide_req ~nocache:false k.kind ~session:k.session ~query:k.query)
          ~check:(Oracle.check_verdict k.kind k.expect)
      | `Insert ->
        let t = ctx.targets.(!target mod Array.length ctx.targets) in
        incr target;
        let row = t.rows.(Random.State.int rng (Array.length t.rows)) in
        Loop.req "insert"
          (Json.Obj
             [
               ("op", Json.Str "insert");
               ("session", Json.Str t.tsession);
               ("rel", Json.Str t.rel);
               ("rows", Json.List [ Json.List row ]);
             ])
          ~check:(fun j ->
            Harness.int_member "inserted" j = Some 1
            && Harness.bool_member "partially_closed" j = Some true)
      | `Churn ->
        Loop.req "open"
          (Json.Obj
             [ ("op", Json.Str "open"); ("source", Json.Str churn_source); ("name", Json.Str "churn") ])
          ~check:(fun j -> Harness.bool_member "partially_closed" j = Some true)
          ~on_reply:(fun j ->
            match Harness.str_member "session" j with
            | Some id -> Queue.push id closes
            | None -> ())
      | `Stats -> Loop.req "stats" (Json.Obj [ ("op", Json.Str "stats") ]) ~check:ok_reply)

let all_ops = [ "rcdp"; "rcqp"; "audit"; "insert"; "open"; "close"; "stats" ]

let with_lanes ctx f =
  let conns = List.init 2 (fun _ -> Loop.connect ctx.daemon.Ricd.socket) in
  Fun.protect ~finally:(fun () -> List.iter Ricd.disconnect conns) (fun () -> f (Loop.lanes conns))

(* The nominal phase runs in chunks of one stream, with calibration
   slices between them when [calib] is given. *)
let nominal_chunks = 10

let nominal ?calib ~seed ctx ~seconds =
  with_lanes ctx (fun lanes ->
      let next = sequence ~seed ctx in
      let chunk i =
        Option.iter Calib.pace calib;
        Loop.open_loop ~rng:(Random.State.make [| seed; 1; i |]) ~rate:nominal_rps
          ~seconds:(seconds /. float_of_int nominal_chunks) lanes next
      in
      let runs = List.init nominal_chunks chunk in
      Option.iter Calib.pace calib;
      Loop.concat runs)

let step ~seed ctx i ~rate ~seconds =
  let r =
    with_lanes ctx (fun lanes ->
        Loop.open_loop ~rng:(Random.State.make [| seed; 2; i |]) ~rate ~seconds lanes
          (sequence ~seed:(seed + i) ctx))
  in
  ( {
      Harness.offered_rps = rate;
      sent = List.length r.Loop.samples;
      completed = Loop.successes r;
      tail_ms = tail (Loop.latencies ~only_ok:false all_ops r);
      backlog = r.Loop.backlog;
      lag_p99_ms = p99 r.Loop.lags_ms;
    },
    r )

(* Find the capacity in the time given: double the rate until a step
   fails, then climb in finer steps from the last one that held until
   two steps in a row fail (one can be a host stall).  Every step
   offers a fresh stream from the seed. *)
let ladder ~seed ctx ~seconds =
  let stop = Unix.gettimeofday () +. seconds in
  let steps = ref [] and runs = ref [] and i = ref 0 in
  let try_rate rate ~seconds =
    incr i;
    let st, r = step ~seed ctx !i ~rate ~seconds in
    steps := st :: !steps;
    runs := r :: !runs;
    Harness.step_ok ~limit_ms ~lag_limit_ms st
  in
  let fits s = Unix.gettimeofday () +. s <= stop in
  let rec coarse rate held =
    if fits coarse_s && try_rate rate ~seconds:coarse_s then coarse (rate *. 2.) rate else held
  in
  let rec fine rate failed_before =
    if fits step_s then begin
      let ok = try_rate rate ~seconds:step_s in
      if ok || not failed_before then fine (rate *. ladder_growth) (not ok)
    end
  in
  let held = coarse ladder_start_rps 0. in
  if held > 0. then fine (held *. ladder_growth) false;
  (List.rev !steps, List.rev !runs)

let run ~seed ~seconds ~trace =
  let secs = float_of_int seconds in
  if not trace then begin
    let ctx, setup_s = timed_setups ~setup:(setup ~seed) ~teardown in
    let calib = Calib.create () in
    let cpu0 = Ricd.cpu_s ctx.daemon in
    let nom = nominal ~calib ~seed ctx ~seconds:(secs *. nominal_share) in
    let cpu = Ricd.cpu_s ctx.daemon -. cpu0 in
    let setup, norm_cpu, calib_detail =
      calibrated calib ~setup_s ~cpu_per_op:(cpu_ms_per_op ~cpu_s:cpu ~ok:(Loop.successes nom))
    in
    let steps, ladder_runs = ladder ~seed ctx ~seconds:(secs *. (1. -. nominal_share)) in
    let c = Loop.connect ctx.daemon.Ricd.socket in
    let stats = Ricd.stats c in
    Ricd.disconnect c;
    let rss = Ricd.vmhwm_mb ctx.daemon in
    teardown ctx;
    write_samples (Ricd.path "serve-samples.csv") nom;
    let capacity = Harness.capacity ~limit_ms ~lag_limit_ms steps in
    let all = Loop.latencies all_ops nom in
    let lag = p99 nom.Loop.lags_ms in
    let valid = lag <= lag_limit_ms in
    if not valid then
      Printf.eprintf "perfbench: invalid run: generator lag p99 %.3f ms exceeds %.1f ms\n%!" lag
        lag_limit_ms;
    let every = nom :: ladder_runs in
    let attempted = List.fold_left (fun n r -> n + List.length r.Loop.samples) 0 every in
    let failed = List.fold_left (fun n r -> n + Loop.failures r) 0 every in
    {
      correct = failed = 0 && valid;
      attempted;
      failed;
      metrics =
        [
          setup;
          norm_cpu;
          metric "success_pct" "%" (success_pct ~attempted ~failed);
          metric "rss_peak_mb" "MB" rss;
        ];
      detail =
        [
          metric "latency_tail_ms" "ms" (tail all);
          metric "latency_p50_ms" "ms" (p50 all);
          metric "capacity_rps" "1/s" capacity;
          metric "latency_p99_ms" "ms" (p99 all);
          metric "latency_tail_pct" "%" (tail_pct all);
          metric "insert_p50_ms" "ms" (p50 (Loop.latencies [ "insert" ] nom));
          metric "nominal_rps" "1/s" nominal_rps;
          metric "loadgen_lag_p99_ms" "ms" lag;
          metric "failed_pct" "%" (100. -. success_pct ~attempted ~failed);
        ]
        @ List.map
            (fun st ->
              metric
                (Printf.sprintf "step_%.0f_tail_ms" st.Harness.offered_rps)
                "ms" st.Harness.tail_ms)
            steps
        @ calib_detail;
      env =
        environment ~workload:"serve" ~seed ~seconds ~trace ~daemon:ctx.daemon ~stats ~journal:None
          ~inputs:ctx.inputs
          ~samples:
            [ ("nominal", List.length all); ("insert", List.length (Loop.latencies [ "insert" ] nom)); ("ladder_steps", List.length steps) ];
    }
  end
  else
    let ctx = setup ~seed () in
    let stats () =
      let c = Loop.connect ctx.daemon.Ricd.socket in
      Fun.protect ~finally:(fun () -> Ricd.disconnect c) (fun () -> Ricd.stats c)
    in
    traced_run ~workload:"serve" ~seed ~seconds ~daemon:ctx.daemon ~journal:None ~inputs:ctx.inputs
      ~opened:ctx.opened
      ~fresh:(fun () -> sequence ~seed ctx)
      ~prelude:(fun () ->
        (* the open loop at the nominal rate: the generator's lag and
           the daemon's queueing under load *)
        let before = stats () in
        let nom = nominal ~seed ctx ~seconds:(secs /. 3.) in
        Some (nom, before, stats ()))
      ~warm:(fun mirror ->
        (* the mirror's cache starts as warm as ricd's *)
        Array.iter
          (fun k ->
            ignore
              (Mirror.replay_untimed mirror
                 (Oracle.decide_req ~nocache:false k.kind ~session:k.session ~query:k.query)))
          ctx.keys)
      ~teardown:(fun () -> teardown ctx)
      ()
