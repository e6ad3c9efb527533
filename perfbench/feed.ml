(* feed: a bulk loader waiting for each acknowledgement (closed loop,
   one client) against a ricd that journals every mutation.  Each cycle
   opens a 100k-tuple [ric gen] file by server-side path, alternating
   triple and telco, sends one insert_bulk of admissible rows, and
   closes the session.  The run ends with the durability check. *)

module Json = Ric_text.Json
module Gen = Ric_workloads.Gen
open Common

let tuples = 100_000

(* rows per insert_bulk, split over two batches *)
let insert_rows = 1000

let timeout_ms = 30_000

type family = {
  fam : string;
  path : string;
  gen_seed : int;
  total_rows : int;  (** database plus master rows, as opened *)
  rows : Random.State.t -> (string * Json.t list list) list;
}

(* Admissible rows: every constrained value comes from the master
   registry that bounds it, and Bill's rate follows its customer, as
   the generator's FD requires. *)
let triple_rows ~entities rng =
  let r = Random.State.int rng in
  let batch () =
    ( "T",
      List.init (insert_rows / 2) (fun _ ->
          [ strf "e%d" (r entities); strf "k%d" (r 16); strf "e%d" (r entities) ]) )
  in
  [ batch (); batch () ]

let telco_rows ~customers rng =
  let r = Random.State.int rng in
  [
    ( "Call",
      List.init (insert_rows / 2) (fun _ ->
          [ strf "c%d" (r customers); strf "c%d" (r customers); Json.Int (1 + r 3600) ]) );
    ( "Bill",
      List.init (insert_rows / 2) (fun _ ->
          let c = r customers in
          [ strf "c%d" c; strf "r%d" (c mod 8); Json.Int (1 + r 500) ]) );
  ]

let families ~seed =
  let entities = tuples / 10 in
  let triple_seed = derive seed 1 and telco_seed = derive seed 2 in
  [
    {
      fam = "triple";
      path = gen_file "feed-triple.ric" Gen.Triple ~tuples ~seed:triple_seed ~rung:0;
      gen_seed = triple_seed;
      total_rows = Gen.total_rows Gen.Triple ~tuples;
      rows = triple_rows ~entities;
    };
    {
      fam = "telco";
      path = gen_file "feed-telco.ric" Gen.Telco ~tuples ~seed:telco_seed ~rung:0;
      gen_seed = telco_seed;
      total_rows = Gen.total_rows Gen.Telco ~tuples;
      rows = telco_rows ~customers:entities;
    };
  ]

let open_req path = Json.Obj [ ("op", Json.Str "open"); ("path", Json.Str path) ]

let insert_req session batches =
  Json.Obj
    [
      ("op", Json.Str "insert_bulk");
      ("session", Json.Str session);
      ( "batches",
        Json.List
          (List.map
             (fun (rel, rows) ->
               Json.Obj
                 [ ("rel", Json.Str rel); ("rows", Json.List (List.map (fun r -> Json.List r) rows)) ])
             batches) );
    ]

let close_req session = Json.Obj [ ("op", Json.Str "close"); ("session", Json.Str session) ]

let rows_in batches = List.fold_left (fun n (_, rows) -> n + List.length rows) 0 batches

type ctx = {
  daemon : Ricd.t;
  fams : family list;
  journal : string;
}

let setup ~seed () =
  Ricd.ensure_run_dir ();
  let journal = Ricd.path "feed.journal" in
  (try Sys.remove journal with Sys_error _ -> ());
  let fams = families ~seed in
  let daemon = Ricd.spawn ~extra:[ "--journal"; journal ] "feed" in
  (* warm-up: one open and close of each file *)
  let c = Loop.connect daemon.Ricd.socket in
  List.iter
    (fun f ->
      let r = Ricd.call_exn c (open_req f.path) in
      match Harness.str_member "session" r with
      | Some id -> ignore (Ricd.call_exn c (close_req id))
      | None -> failwith ("feed warm-up open failed: " ^ Json.to_string r))
    fams;
  Ricd.disconnect c;
  { daemon; fams; journal }

let teardown ctx = Ricd.stop ctx.daemon

(* The request sequence: open, insert_bulk, close, cycling through the
   families.  [fed] counts tuples acknowledged (opened plus inserted). *)
let sequence ~seed ctx =
  let rng = Random.State.make [| seed; 0xfeed |] in
  let fams = Array.of_list ctx.fams in
  let cycle = ref 0 and session = ref "" and epoch = ref 0 in
  let step = ref `Open in
  let fed = ref 0 in
  let next () =
    let f = fams.(!cycle mod Array.length fams) in
    match !step with
    | `Open ->
      Loop.req ~timeout_ms "open" (open_req f.path)
        ~check:(fun j ->
          Harness.bool_member "partially_closed" j = Some true
          && Harness.int_member "epoch" j = Some 0
          && Harness.str_member "session" j <> None)
        ~on_reply:(fun j ->
          session := Option.get (Harness.str_member "session" j);
          epoch := 0;
          fed := !fed + f.total_rows;
          step := `Insert)
    | `Insert ->
      let batches = f.rows rng in
      let n = rows_in batches in
      Loop.req ~timeout_ms "insert_bulk" (insert_req !session batches)
        ~check:(fun j ->
          Harness.int_member "inserted" j = Some n
          && Harness.int_member "epoch" j = Some (!epoch + 1)
          && Harness.bool_member "partially_closed" j = Some true)
        ~on_reply:(fun _ ->
          incr epoch;
          fed := !fed + n;
          step := `Close)
    | `Close ->
      Loop.req ~timeout_ms "close" (close_req !session) ~check:ok_reply ~on_reply:(fun _ ->
          incr cycle;
          step := `Open)
  in
  (next, fed)

(* Durability: on a fresh ricd with its own journal (recovery would
   replay every open of the timed window, ~0.7 s each), leave one
   session open with acknowledged inserts, SIGKILL ricd, restart it
   with --recover on the same journal, and require the session back at
   its acknowledged epoch with every acknowledged row readable.  A row
   is readable when inserting it again leaves the session's tuple
   count unchanged. *)
let durability ~seed ctx =
  let rng = Random.State.make [| seed; 0xd0 |] in
  let f = List.hd ctx.fams in
  let journal = Ricd.path "feed-durability.journal" in
  (try Sys.remove journal with Sys_error _ -> ());
  let daemon = Ricd.spawn ~extra:[ "--journal"; journal ] "feed-durability" in
  let c = Loop.connect daemon.Ricd.socket in
  let opened = Ricd.call_exn c (open_req f.path) in
  let id = Option.get (Harness.str_member "session" opened) in
  let acked =
    List.init 2 (fun _ ->
        let batches = f.rows rng in
        let r = Ricd.call_exn c (insert_req id batches) in
        if Harness.int_member "inserted" r <> Some (rows_in batches) then
          failwith ("durability insert not acknowledged: " ^ Json.to_string r);
        (batches, Harness.int_member "epoch" r))
  in
  let acked_epoch = snd (List.nth acked 1) in
  let info stats field =
    Option.bind (Ricd.session_info stats id) (Harness.int_member field)
  in
  let live = Ricd.stats c in
  let tuples = info live "tuples" in
  Ricd.disconnect c;
  Ricd.kill9 daemon;
  let revived = Ricd.spawn ~extra:[ "--journal"; journal; "--recover" ] "feed-recovered" in
  let c = Loop.connect revived.Ricd.socket in
  let back = Ricd.stats c in
  let epoch_ok = info back "epoch" = acked_epoch && acked_epoch <> None in
  let tuples_ok = info back "tuples" = tuples && tuples <> None in
  List.iter (fun (batches, _) -> ignore (Ricd.call_exn c (insert_req id batches))) acked;
  let readable = info (Ricd.stats c) "tuples" = tuples in
  Ricd.disconnect c;
  Ricd.stop revived;
  if not (epoch_ok && tuples_ok && readable) then
    Printf.eprintf
      "perfbench: durability check failed (epoch %b, tuple count %b, rows readable %b)\n%!"
      epoch_ok tuples_ok readable;
  epoch_ok && tuples_ok && readable

let inputs ctx =
  List.map
    (fun f -> input ~name:(Filename.basename f.path) ~family:f.fam ~seed:f.gen_seed ~size:tuples)
    ctx.fams

let run ~seed ~seconds ~trace =
  let secs = float_of_int seconds in
  if not trace then begin
    let ctx, setup_s = timed_setups ~setup:(setup ~seed) ~teardown in
    let next, fed = sequence ~seed ctx in
    let c = Loop.connect ctx.daemon.Ricd.socket in
    (* the sequence repeats every open, insert_bulk, close of each family *)
    let period = 3 * List.length ctx.fams in
    let r, cpu_per_op, calib = closed_loop_cpu c ctx.daemon ~seconds:secs ~period next in
    let stats = Ricd.stats c in
    Ricd.disconnect c;
    let rss = Ricd.vmhwm_mb ctx.daemon in
    teardown ctx;
    let durable = durability ~seed ctx in
    write_samples (Ricd.path "feed-samples.csv") r;
    let attempted = List.length r.Loop.samples and failed = Loop.failures r in
    let setup, norm_cpu, calib_detail = calibrated calib ~setup_s ~cpu_per_op in
    let all = Loop.latencies [ "open"; "insert_bulk"; "close" ] r in
    let opens = Loop.latencies [ "open" ] r and inserts = Loop.latencies [ "insert_bulk" ] r in
    {
      correct = failed = 0 && durable;
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
          metric "ops_per_s" "1/s" (float_of_int (Loop.successes r) /. r.Loop.wall_s);
          metric "latency_tail_ms" "ms" (tail all);
          metric "latency_p50_ms" "ms" (p50 all);
          metric "feed_tuples_per_s" "1/s" (float_of_int !fed /. r.Loop.wall_s);
          metric "open_p50_ms" "ms" (p50 opens);
          metric "insert_p50_ms" "ms" (p50 inserts);
          metric "failed_pct" "%" (100. -. success_pct ~attempted ~failed);
          metric "latency_tail_pct" "%" (tail_pct all);
        ]
        @ calib_detail;
      env =
        environment ~workload:"feed" ~seed ~seconds ~trace ~daemon:ctx.daemon ~stats
          ~journal:(Some ctx.journal) ~inputs:(inputs ctx)
          ~samples:
            [ ("all", List.length all); ("open", List.length opens); ("insert_bulk", List.length inserts) ];
    }
  end
  else
    let ctx = setup ~seed () in
    traced_run ~workload:"feed" ~seed ~seconds ~daemon:ctx.daemon ~journal:(Some ctx.journal)
      ~inputs:(inputs ctx) ~opened:[]
      ~fresh:(fun () -> fst (sequence ~seed ctx))
      ~teardown:(fun () -> teardown ctx)
      ()
