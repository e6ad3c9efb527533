(* In-process reference answers, computed at set-up in the [inc]
   search mode — a different mode from the daemon's default — and the
   reply checks that compare ricd's answers against them. *)

module Json = Ric_text.Json
module Scenario = Ric_text.Scenario
module Search_mode = Ric_complete.Search_mode

let mode = Search_mode.Inc

let verdict_of kind (sc : Scenario.t) query =
  match Scenario.find_query sc query with
  | None -> invalid_arg ("oracle: no query " ^ query)
  | Some q ->
    let schema = sc.Scenario.db_schema and master = sc.Scenario.master in
    let ccs = Scenario.all_ccs sc and db = sc.Scenario.db in
    (try
       match kind with
       | "rcdp" -> (
         match Ric_complete.Rcdp.decide ~search:mode ~schema ~master ~ccs ~db q with
         | Ric_complete.Rcdp.Complete -> "complete"
         | Ric_complete.Rcdp.Incomplete _ -> "incomplete")
       | "rcqp" ->
         Ric_complete.Rcqp.verdict_name (Ric_complete.Rcqp.decide ~search:mode ~schema ~master ~ccs q)
       | "audit" -> (
         match
           Harness.str_member "audit"
             (Ric_text.Report.audit_result
                (Ric_complete.Guidance.audit ~search:mode ~schema ~master ~ccs ~db q))
         with
         | Some tag -> tag
         | None -> "?")
       | k -> invalid_arg ("oracle: unknown decide kind " ^ k)
     with
     | Ric_complete.Rcdp.Unsupported _ | Ric_complete.Rcqp.Unsupported _ -> "unsupported"
     | Ric_complete.Rcdp.Not_partially_closed _ -> "not_partially_closed")

(* The reply's verdict: [result.verdict] for rcdp/rcqp, [result.audit]
   for audit. *)
let reply_verdict kind reply =
  match Harness.member "result" reply with
  | None -> None
  | Some r -> Harness.str_member (if kind = "audit" then "audit" else "verdict") r

let check_verdict kind expected reply = reply_verdict kind reply = Some expected

(* Mined constraints in the reply's concrete syntax, in order. *)
let mined_texts (sc : Scenario.t) =
  let r =
    Ric_mining.Mine.run ~db_schema:sc.Scenario.db_schema ~master_schema:sc.Scenario.master_schema
      ~db:sc.Scenario.db ~master:sc.Scenario.master ()
  in
  List.map
    (fun named -> String.trim (Format.asprintf "%a" Scenario.pp_named_constraint named))
    r.Ric_mining.Mine.accepted

let check_mined expected reply =
  match Option.bind (Harness.member "result" reply) (Harness.member "accepted") with
  | Some (Json.List l) -> List.map (Harness.str_member "text") l = List.map Option.some expected
  | _ -> false

let decide_req ?timeout_ms ?(nocache = true) kind ~session ~query =
  Json.Obj
    ([
       ("op", Json.Str kind);
       ("session", Json.Str session);
       ("query", Json.Str query);
       ("nocache", Json.Bool nocache);
     ]
    @ match timeout_ms with Some t -> [ ("timeout_ms", Json.Int t) ] | None -> [])

(* Run the set-up's reference computations on two domains: the host
   has two cores and nothing else runs during set-up. *)
let parallel (tasks : (unit -> 'a) list) : 'a list =
  let tasks = Array.of_list tasks in
  let results = Array.make (Array.length tasks) None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length tasks then begin
      results.(i) <- Some (match tasks.(i) () with v -> Ok v | exception e -> Error e);
      work ()
    end
  in
  let helper = Domain.spawn work in
  work ();
  Domain.join helper;
  Array.to_list
    (Array.map
       (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
       results)
