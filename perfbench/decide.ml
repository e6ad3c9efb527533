(* decide: an analyst waiting for each verdict (closed loop, one
   client).  Sessions are opened during set-up; every request bypasses
   the verdict cache, runs in the daemon's default search mode and
   carries a deadline.  The sequence draws on:

   - rcdp QL on [ric gen ladder] rungs 3-5 for two seeds (Σ₂ᵖ; on
     rungs 4 and 5 one exhaustive search and one counterexample, see
     {!ladder_pools});
   - rcdp QT on eight [ric gen triple] instances of 5k tuples, where
     the default mode's full constraint re-check after every search
     step makes each counterexample-depth unit cost ~0.7 s in ricd
     against ~2 ms incrementally;
   - rcdp, audit and rcqp of every query of crm.ric and
     supply_chain.ric;
   - mine on a 10k-tuple [ric gen telco] instance.

   It runs in rounds of all 30 requests, the eight triple decides
   spread among the others, and CPU per reply is taken over whole
   rounds.

   The triple instances are stratified.  The default mode's cost on
   one is proportional to the depth k at which the search meets its
   first counterexample, and k is geometric over generator seeds (about
   half the instances have k = 0).  Eight instances drawn freely would
   make a round's cost swing by half between seeds, so each run holds
   the generator's own proportions: four with k = 0, two with k = 1,
   one with k = 2 and one with k = 3.  The instances come from fixed
   pools of generator seeds, sixteen per depth, classified once with
   {!depth} (they are the first sixteen of each depth among the
   candidates [derive 1 (100 + i)]); --seed chooses which of each pool
   a run takes.  Every run thus carries the same share of cliff
   instances and generates exactly eight, none is dropped because it
   is slow, and set-up does the same work whatever the seed. *)

module Json = Ric_text.Json
module Gen = Ric_workloads.Gen
module Scenario = Ric_text.Scenario
open Common

let timeout_ms = 20_000

let triple_tuples = 5_000

let telco_tuples = 10_000

(* Counterexample depths of the eight triple instances, in the order
   they are sent: the slow ones spread out, the same order every run. *)
let strata = [ 0; 3; 0; 1; 0; 2; 0; 1 ]

(* Generator seeds of 5k-tuple triple instances by counterexample
   depth: [pools.(k)] holds sixteen with depth k. *)
let pools =
  [|
    [| 10585549; 10690278; 10899736; 11004465; 11318652; 11528110; 11632839; 11737568;
       11947026; 12889587; 13099045; 13413232; 13517961; 13727419; 13832148; 13936877 |];
    [| 10480820; 10795007; 11109194; 11213923; 11842297; 12051755; 12261213; 12470671;
       12680129; 13308503; 14041606; 14146335; 14669980; 15298354; 15717270; 16136186 |];
    [| 12156484; 12365942; 12575400; 12994316; 13203774; 14251064; 15612541; 16555102;
       19487514; 20220617; 22001010; 23886132; 24305048; 24828693; 26085441; 26818544 |];
    [| 11423381; 13622690; 14355793; 15088896; 15821999; 17602392; 17707121; 24933422;
       25771254; 26609086; 26923273; 28075292; 28703666; 31217162; 31321891; 33835387 |];
  |]

(* Generator seeds of ladder instances on rungs 4 and 5 by verdict:
   [ladder_pools.(r - 4)] holds eight Complete ones (an exhaustive
   search, 0.1-0.7 s) and eight Incomplete ones (a counterexample,
   mostly found at once).  They are the first eight of each verdict
   among the candidates [derive 1 (200 + i)].  Free draws would put
   zero to four exhaustive searches in a round; each run takes one of
   each verdict per rung instead, --seed choosing which.  Every rung-3
   instance is Complete, so rung 3 draws freely. *)
let ladder_pools =
  [|
    ( [| 21058449; 21267907; 21477365; 21582094; 21686823; 21791552; 21896281; 22001010 |],
      [| 20953720; 21163178; 21372636; 22105739; 22524655; 22629384; 22734113; 23467216 |] );
    ( [| 21267907; 21477365; 21686823; 21896281; 22105739; 22943571; 23153029; 23362487 |],
      [| 20953720; 21058449; 21163178; 21372636; 21582094; 21791552; 22001010; 22210468 |] );
  |]

let ladder_seed ~seed ~rung j =
  if rung < 4 then derive seed (10 + j)
  else
    let complete, incomplete = ladder_pools.(rung - 4) in
    let pool = if j = 0 then complete else incomplete in
    pool.(((seed * 3) + rung) land max_int mod Array.length pool)

type item = {
  tag : string;  (** the input it is about *)
  kind : string;  (** rcdp, rcqp, audit or mine *)
  session : string;
  query : string;
  expect : string list;  (** the oracle's verdict, or the mined constraints *)
}

type ctx = {
  daemon : Ricd.t;
  opened : (string * Json.t) list;  (** ricd session id, open request *)
  triples : item list;
  others : item list;  (** ladders, scenario decides and mine, interleaved *)
  inputs : Json.t list;
}

(* Counterexample depth of a triple instance (and its verdict): search
   steps before the first counterexample, in units of one sweep over
   the candidate values. *)
let depth (sc : Scenario.t) =
  let q = Option.get (Scenario.find_query sc "QT") in
  let stats = ref { Ric_complete.Rcdp.valuations_visited = 0; branches_pruned = 0 } in
  let verdict =
    match
      Ric_complete.Rcdp.decide ~search:Oracle.mode ~collect_stats:stats
        ~schema:sc.Scenario.db_schema ~master:sc.Scenario.master ~ccs:(Scenario.all_ccs sc)
        ~db:sc.Scenario.db q
    with
    | Ric_complete.Rcdp.Complete -> "complete"
    | Ric_complete.Rcdp.Incomplete _ -> "incomplete"
  in
  let values =
    List.length
      (List.sort_uniq compare
         (Ric_relational.Database.adom sc.Scenario.db
         @ Ric_relational.Database.adom sc.Scenario.master))
    + Ric_query.Lang.var_count q
  in
  ( int_of_float
      (Float.round (float_of_int !stats.Ric_complete.Rcdp.valuations_visited /. float_of_int values)),
    verdict )

(* The eight triple instances of a run, in [strata] order: the j-th
   instance of depth k is [pools.(k)] at a seed-dependent offset plus
   5j, so one run never takes the same instance twice.  Their depth is
   measured again here, and the verdict kept for the oracle. *)
let stratified_triples ~seed =
  let taken = Array.make (Array.length pools) 0 in
  List.mapi
    (fun i k ->
      let pool = pools.(k) in
      let gseed = pool.(((seed * 7) + (5 * taken.(k))) land max_int mod Array.length pool) in
      taken.(k) <- taken.(k) + 1;
      let text = Gen.to_string Gen.Triple ~tuples:triple_tuples ~seed:gseed ~rung:0 in
      let measured, verdict = depth (Scenario.parse text) in
      if measured <> k then
        Printf.eprintf "perfbench: triple seed %d has depth %d, not %d\n%!" gseed measured k;
      let path = Ricd.path (Printf.sprintf "decide-triple-%d.ric" i) in
      write_file path text;
      (path, gseed, measured, verdict))
    strata

(* Round-robin merge of several lists. *)
let interleave groups =
  let rec go groups acc =
    match List.filter (( <> ) []) groups with
    | [] -> List.rev acc
    | gs -> go (List.map List.tl gs) (List.rev_append (List.map List.hd gs) acc)
  in
  go groups []

let setup ~seed () =
  Ricd.ensure_run_dir ();
  let ladders =
    List.concat_map
      (fun rung ->
        List.map
          (fun j ->
            let gseed = ladder_seed ~seed ~rung j in
            let name = Printf.sprintf "decide-ladder-%d-%d.ric" rung j in
            (gen_file name Gen.Ladder ~tuples:1 ~seed:gseed ~rung, gseed, rung))
          [ 0; 1 ])
      [ 3; 4; 5 ]
  in
  let triples = stratified_triples ~seed in
  let telco_seed = derive seed 20 in
  let telco = gen_file "decide-telco.ric" Gen.Telco ~tuples:telco_tuples ~seed:telco_seed ~rung:0 in
  let scenarios = [ "scenarios/crm.ric"; "scenarios/supply_chain.ric" ] in
  let daemon = Ricd.spawn "decide" in
  let c = Loop.connect daemon.Ricd.socket in
  let opened = ref [] in
  let open_path = open_path c opened in
  let tag_of path = Filename.remove_extension (Filename.basename path) in
  (* items whose expectation is still to be computed *)
  let pending ~tag kind (session, sc) query =
    ( { tag = tag ^ " " ^ query; kind; session; query; expect = [] },
      fun () ->
        if kind = "mine" then Oracle.mined_texts sc else [ Oracle.verdict_of kind sc query ] )
  in
  let triple_items =
    List.map
      (fun (p, _, k, verdict) ->
        {
          tag = Printf.sprintf "%s k%d" (tag_of p) k;
          kind = "rcdp";
          session = fst (open_path p);
          query = "QT";
          expect = [ verdict ];
        })
      triples
  in
  let ladder_items =
    List.map (fun (p, _, _) -> pending ~tag:(tag_of p) "rcdp" (open_path p) "QL") ladders
  in
  let scenario_items =
    List.concat_map
      (fun path ->
        let s = open_path path in
        List.concat_map
          (fun (query, _) ->
            List.map (fun kind -> pending ~tag:(tag_of path) kind s query) [ "rcdp"; "audit"; "rcqp" ])
          (snd s).Scenario.queries)
      scenarios
  in
  let mine_items = [ pending ~tag:(tag_of telco) "mine" (open_path telco) "" ] in
  Ricd.disconnect c;
  let others = interleave [ ladder_items; scenario_items; mine_items ] in
  let expects = Oracle.parallel (List.map snd others) in
  let others = List.map2 (fun (it, _) expect -> { it with expect }) others expects in
  let inputs =
    List.map
      (fun (p, s, r) -> input ~name:(Filename.basename p) ~family:"ladder" ~seed:s ~size:r)
      ladders
    @ List.map
        (fun (p, s, k, _) ->
          input
            ~name:(Printf.sprintf "%s (depth %d)" (Filename.basename p) k)
            ~family:"triple" ~seed:s ~size:triple_tuples)
        triples
    @ [ input ~name:"decide-telco.ric" ~family:"telco" ~seed:telco_seed ~size:telco_tuples ]
    @ List.map (fun p -> input ~name:p ~family:"scenario" ~seed:0 ~size:0) scenarios
  in
  { daemon; opened = List.rev !opened; triples = triple_items; others; inputs }

let teardown ctx = Ricd.stop ctx.daemon

let request it =
  if it.kind = "mine" then
    Loop.req ~timeout_ms ~tag:it.tag "mine"
      (Json.Obj
         [
           ("op", Json.Str "mine");
           ("session", Json.Str it.session);
           ("nocache", Json.Bool true);
           ("timeout_ms", Json.Int timeout_ms);
         ])
      ~check:(Oracle.check_mined it.expect)
  else
    Loop.req ~timeout_ms ~tag:it.tag it.kind
      (Oracle.decide_req ~timeout_ms it.kind ~session:it.session ~query:it.query)
      ~check:(Oracle.check_verdict it.kind (List.hd it.expect))

(* One round: every request once, the eight triple decides spread
   among the others; the sequence repeats it. *)
let round ctx = interleave [ ctx.triples; ctx.others ]

let round_length ctx = List.length (round ctx)

let sequence ctx =
  let all = Array.of_list (List.map request (round ctx)) in
  let i = ref (-1) in
  fun () ->
    incr i;
    all.(!i mod Array.length all)

let run ~seed ~seconds ~trace =
  let secs = float_of_int seconds in
  if not trace then begin
    let ctx, setup_s = timed_setups ~setup:(setup ~seed) ~teardown in
    let c = Loop.connect ctx.daemon.Ricd.socket in
    let r, cpu_per_op, calib =
      closed_loop_cpu c ctx.daemon ~seconds:secs ~period:(round_length ctx) (sequence ctx)
    in
    let stats = Ricd.stats c in
    Ricd.disconnect c;
    let rss = Ricd.vmhwm_mb ctx.daemon in
    teardown ctx;
    write_samples (Ricd.path "decide-samples.csv") r;
    let attempted = List.length r.Loop.samples and failed = Loop.failures r in
    let setup, norm_cpu, calib_detail = calibrated calib ~setup_s ~cpu_per_op in
    let decides = Loop.latencies Common.decide_ops r and mines = Loop.latencies [ "mine" ] r in
    {
      correct = failed = 0;
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
          metric "decide_p50_ms" "ms" (p50 decides);
          metric "decide_tail_ms" "ms" (tail decides);
          metric "decide_tail_pct" "%" (tail_pct decides);
          metric "mine_p50_ms" "ms" (p50 mines);
          metric "failed_pct" "%" (100. -. success_pct ~attempted ~failed);
        ]
        @ calib_detail;
      env =
        environment ~workload:"decide" ~seed ~seconds ~trace ~daemon:ctx.daemon ~stats ~journal:None
          ~inputs:ctx.inputs
          ~samples:[ ("decide", List.length decides); ("mine", List.length mines) ];
    }
  end
  else
    let ctx = setup ~seed () in
    traced_run ~workload:"decide" ~seed ~seconds ~daemon:ctx.daemon ~journal:None ~inputs:ctx.inputs
      ~opened:ctx.opened
      ~fresh:(fun () -> sequence ctx)
      ~teardown:(fun () -> teardown ctx)
      ()
