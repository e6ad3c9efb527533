(* The traced run's in-process side.  After each request's socket round
   trip, the bench repeats the request's work in this process through
   each layer's public functions, each call wrapped in a span under the
   request's root:

     request (socket round trip)
       text.json           Json.of_string of the request + Json.to_string of the reply
       server.protocol     Protocol.of_json
       server.handle       Service.handle on an in-process service
         text.parse          Scenario.load / Scenario.parse         (open)
         server.session_open Session.open_scenario                  (open)
           constraints.closure Containment.first_violation
         server.insert       Session.insert_batches                 (insert)
           relational.add      Database.add_tuples
           constraints.closure Containment.first_violation
         text.journal        Scenario.pp + Journal.append           (open, insert)
         complete.rcdp|rcqp|audit  the decider, uncached replies only
           query.eval          Match_engine.solve of the query on D
         mining.mine         Mine.run                               (mine)

   The children repeat work that Service.handle also does inside, so
   a parent's self time is what its own layer adds on top.  They are
   sequential re-executions laid out on the timeline after their
   parent, not inside it: text.json, server.protocol and server.handle
   start once the round trip has ended, and server.handle's children
   once Service.handle has returned.  The nesting is in the parent
   ids only, so a self time is a difference of durations.  Nothing
   here runs inside ricd: spans inside lib/ are a later change. *)

open Ric_relational
module Json = Ric_text.Json
module Scenario = Ric_text.Scenario
module Journal = Ric_text.Journal
module Service = Ric_service.Service
module Session = Ric_service.Session
module Protocol = Ric_service.Protocol
module Lang = Ric_query.Lang
module Containment = Ric_constraints.Containment

type msession = {
  mid : string;  (** the in-process service's id for this session *)
  scenario : Scenario.t;
  mutable db : Database.t;
  bsess : Session.t;  (** the bench registry's copy *)
}

type t = {
  svc : Service.t;
  reg : Session.registry;
  journal : Journal.t;
  journal_path : string;
  search : Ric_complete.Search_mode.t;
  sessions : (string, msession) Hashtbl.t;  (** by ricd's session id *)
  mutable journal_bytes : int;
  mutable journal_tuples : int;
  mutable mine_accepted : int;
  mutable mine_evaluated : int;
}

let create ~search ~journal_path =
  (try Sys.remove journal_path with Sys_error _ -> ());
  {
    svc = Service.create ~default_search:search ();
    reg = Session.create ();
    journal = Journal.open_append ~truncate:true journal_path;
    journal_path;
    search;
    sessions = Hashtbl.create 16;
    journal_bytes = 0;
    journal_tuples = 0;
    mine_accepted = 0;
    mine_evaluated = 0;
  }

let close t = Journal.close t.journal

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Rewrite ricd's session id into the in-process one. *)
let localise t (req : Json.t) =
  match req with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (function
           | "session", Json.Str id ->
             ( "session",
               Json.Str
                 (match Hashtbl.find_opt t.sessions id with Some m -> m.mid | None -> id) )
           | kv -> kv)
         fields)
  | j -> j

let session_of_reply reply = Harness.str_member "session" reply

(* Bring a session ricd opened during set-up into this process too,
   untimed, so later requests on it can be replayed. *)
let adopt t ~daemon_id (open_req : Json.t) =
  match Protocol.of_json open_req with
  | Ok (Protocol.Open { path; source; _ } as r) ->
    let reply = Service.handle t.svc r in
    let scenario =
      match (path, source) with
      | Some p, _ -> Scenario.load p
      | None, Some s -> Scenario.parse s
      | None, None -> invalid_arg "adopt: open without path or source"
    in
    (match session_of_reply reply with
     | Some mid ->
       let bsess = Session.open_scenario t.reg scenario in
       Hashtbl.replace t.sessions daemon_id { mid; scenario; db = scenario.Scenario.db; bsess }
     | None -> failwith "adopt: in-process open failed")
  | _ -> invalid_arg "adopt: not an open request"

(* Feed a request to the in-process service only, without spans (to
   warm its cache as set-up warmed ricd's). *)
let replay_untimed t req =
  match Protocol.of_json (localise t req) with
  | Ok r -> Some (Service.handle t.svc r)
  | Error _ -> None

let warn_once =
  let seen = Hashtbl.create 8 in
  fun what e ->
    if not (Hashtbl.mem seen what) then begin
      Hashtbl.add seen what ();
      Printf.eprintf "perfbench: traced %s call raised %s\n%!" what (Printexc.to_string e)
    end

let quietly what f = try f () with e -> warn_once what e

let closure_check ~parent (sc : Scenario.t) db =
  ignore
    (Spans.timed ~parent "constraints.closure" (fun _ ->
         Containment.first_violation ~db ~master:sc.Scenario.master (Scenario.all_ccs sc)))

let journal ~parent t entry ~tuples =
  let before = file_size t.journal_path in
  ignore (Spans.timed ~parent "text.journal" (fun _ -> Journal.append t.journal (entry ())));
  t.journal_bytes <- t.journal_bytes + (file_size t.journal_path - before);
  t.journal_tuples <- t.journal_tuples + tuples

(* Every answer of the query on D, through the join engine. *)
let eval_query ~parent db (q : Lang.t) =
  match Lang.as_ucq q with
  | None -> ()
  | Some disjuncts ->
    ignore
      (Spans.timed ~parent "query.eval" (fun _ ->
           List.iter
             (fun cq ->
               match Ric_query.Cq.normalize cq with
               | None -> ()
               | Some n ->
                 ignore
                   (Ric_query.Match_engine.solve ~lookup:(Database.relation db)
                      ~neqs:n.Ric_query.Cq.n_neqs n.Ric_query.Cq.n_atoms (fun _ -> false)))
             disjuncts))

let on_open t ~parent ~daemon_reply ~handle_reply ~path ~source ~name =
  let sc, _ =
    Spans.timed ~parent "text.parse" (fun _ ->
        match (path, source) with
        | Some p, _ -> Scenario.load p
        | _, Some s -> Scenario.parse s
        | None, None -> invalid_arg "open without path or source")
  in
  let sid = ref 0 in
  let bsess, _ =
    Spans.timed ~parent "server.session_open" (fun id ->
        sid := id;
        Session.open_scenario t.reg sc)
  in
  closure_check ~parent:!sid sc sc.Scenario.db;
  let tuples =
    Database.total_tuples sc.Scenario.db + Database.total_tuples sc.Scenario.master
  in
  journal ~parent t ~tuples (fun () ->
      Journal.Opened
        { id = bsess.Session.id; name; source = Format.asprintf "%a" Scenario.pp sc });
  match (session_of_reply daemon_reply, session_of_reply handle_reply) with
  | Some did, Some mid ->
    Hashtbl.replace t.sessions did { mid; scenario = sc; db = sc.Scenario.db; bsess }
  | _ -> ()

let on_insert t ~parent ~daemon_id batches =
  match Hashtbl.find_opt t.sessions daemon_id with
  | None -> ()
  | Some m ->
    let tuples = List.fold_left (fun n (_, rows) -> n + List.length rows) 0 batches in
    let iid = ref 0 in
    ignore
      (Spans.timed ~parent "server.insert" (fun id ->
           iid := id;
           Session.insert_batches m.bsess ~batches));
    let db, _ =
      Spans.timed ~parent:!iid "relational.add" (fun _ ->
          Database.add_tuples m.db
            (List.concat_map (fun (rel, rows) -> List.map (fun r -> (rel, Tuple.make r)) rows) batches))
    in
    m.db <- db;
    closure_check ~parent:!iid m.scenario db;
    journal ~parent t ~tuples (fun () -> Journal.Inserted_bulk { id = m.bsess.Session.id; batches })

let decide t ~parent ~daemon_id ~query kind =
  match Hashtbl.find_opt t.sessions daemon_id with
  | None -> ()
  | Some m ->
    (match Scenario.find_query m.scenario query with
     | None -> ()
     | Some q ->
       let sc = m.scenario and db = m.db and search = t.search in
       let schema = sc.Scenario.db_schema and master = sc.Scenario.master in
       let ccs = Scenario.all_ccs sc in
       ignore
         (Spans.timed ~parent ("complete." ^ kind) (fun did ->
              quietly kind (fun () ->
                  match kind with
                  | "rcdp" ->
                    ignore
                      (Ric_complete.Rcdp.decide ~search ~check_partially_closed:false ~schema
                         ~master ~ccs ~db q)
                  | "rcqp" -> ignore (Ric_complete.Rcqp.decide ~search ~schema ~master ~ccs q)
                  | _ ->
                    ignore (Ric_complete.Guidance.audit ~search ~schema ~master ~ccs ~db q));
              eval_query ~parent:did db q)))

let mine t ~parent ~daemon_id =
  match Hashtbl.find_opt t.sessions daemon_id with
  | None -> ()
  | Some m ->
    let sc = m.scenario in
    let r, _ =
      Spans.timed ~parent "mining.mine" (fun _ ->
          Ric_mining.Mine.run ~db_schema:sc.Scenario.db_schema
            ~master_schema:sc.Scenario.master_schema ~db:m.db ~master:sc.Scenario.master ())
    in
    t.mine_accepted <- t.mine_accepted + r.Ric_mining.Mine.stats.Ric_mining.Mine.accepted;
    t.mine_evaluated <- t.mine_evaluated + r.Ric_mining.Mine.stats.Ric_mining.Mine.evaluated

(* Replay one request that ricd answered with [daemon_reply]; returns
   the seconds its json, protocol and handle spans took together. *)
let replay t ~root (req : Json.t) (daemon_reply : Json.t) =
  let text = Json.to_string req in
  let (), json_s =
    Spans.timed ~parent:root "text.json" (fun _ ->
        ignore (Json.of_string text);
        ignore (Json.to_string daemon_reply))
  in
  let local = localise t req in
  let decoded, protocol_s =
    Spans.timed ~parent:root "server.protocol" (fun _ -> Protocol.of_json local)
  in
  match decoded with
  | Error _ -> json_s +. protocol_s
  | Ok request ->
    let hid = ref 0 in
    let handle_reply, handle_s =
      Spans.timed ~parent:root "server.handle" (fun id ->
          hid := id;
          Service.handle t.svc request)
    in
    let parent = !hid in
    let daemon_id = Option.value ~default:"" (Harness.str_member "session" req) in
    let uncached = Harness.bool_member "cached" daemon_reply <> Some true in
    quietly (Protocol.op_name request) (fun () ->
        match request with
        | Protocol.Open { path; source; name } ->
          on_open t ~parent ~daemon_reply ~handle_reply ~path ~source ~name
        | Protocol.Insert { rel; rows; _ } -> on_insert t ~parent ~daemon_id [ (rel, rows) ]
        | Protocol.Insert_bulk { batches; _ } -> on_insert t ~parent ~daemon_id batches
        | Protocol.Rcdp { query; _ } when uncached -> decide t ~parent ~daemon_id ~query "rcdp"
        | Protocol.Rcqp { query; _ } when uncached -> decide t ~parent ~daemon_id ~query "rcqp"
        | Protocol.Audit { query; _ } when uncached -> decide t ~parent ~daemon_id ~query "audit"
        | Protocol.Mine _ when uncached -> mine t ~parent ~daemon_id
        | Protocol.Close _ ->
          (match Hashtbl.find_opt t.sessions daemon_id with
           | Some m -> ignore (Session.close t.reg m.bsess.Session.id)
           | None -> ());
          Hashtbl.remove t.sessions daemon_id
        | _ -> ());
    json_s +. protocol_s +. handle_s
