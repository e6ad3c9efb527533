open Ric_relational
open Ric_constraints
module Scenario = Ric_text.Scenario

type t = {
  id : string;
  name : string option;
  scenario : Scenario.t;
  ccs_fingerprint : string;
  mutable db : Database.t;
  mutable epoch : int;
  mutable closure_violation : (string * Tuple.t) option;
}

let partially_closed s = s.closure_violation = None

let find_query s name = Scenario.find_query s.scenario name

let query_names s = List.map fst s.scenario.Scenario.queries

type registry = {
  sessions : (string, t) Hashtbl.t;
  mutable next_id : int;
}

let create () = { sessions = Hashtbl.create 16; next_id = 1 }

let fingerprint (scenario : Scenario.t) =
  let printed =
    String.concat ";"
      (List.map
         (fun (name, cc) -> name ^ "=" ^ Format.asprintf "%a" Containment.pp cc)
         scenario.Scenario.ccs)
  in
  Digest.to_hex (Digest.string printed)

(* Built per request: its index store, and the RHS caches, die with
   the request instead of riding on every open session. *)
let checker_of (scenario : Scenario.t) =
  Incremental.create ~schema:scenario.Scenario.db_schema
    ~master:scenario.Scenario.master (Scenario.all_ccs scenario)

let checker s = checker_of s.scenario

(* The compiled checker decides whether [V] holds; only a violated
   CC is evaluated again, interpreted, for the witness a reply
   reports: the least tuple of [q(D) \ p(Dm)]. *)
let witness (scenario : Scenario.t) db = function
  | None -> None
  | Some cc ->
    Option.map
      (fun w -> (cc.Containment.cc_name, w))
      (Containment.violation ~db ~master:scenario.Scenario.master cc)

(* A forced [id] comes from journal replay; keep [next_id] ahead of it
   so post-recovery sessions never collide with recovered ones. *)
let open_scenario reg ?id ?name scenario =
  let id =
    match id with
    | Some id ->
      if String.length id > 1 && id.[0] = 's' then
        (match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
         | Some n -> reg.next_id <- max reg.next_id (n + 1)
         | None -> ());
      id
    | None ->
      let id = Printf.sprintf "s%d" reg.next_id in
      reg.next_id <- reg.next_id + 1;
      id
  in
  let db = scenario.Scenario.db in
  let s =
    {
      id;
      name;
      scenario;
      ccs_fingerprint = fingerprint scenario;
      db;
      epoch = 0;
      closure_violation =
        witness scenario db (Incremental.first_violated (checker_of scenario) ~db);
    }
  in
  Hashtbl.replace reg.sessions id s;
  s

let find reg id = Hashtbl.find_opt reg.sessions id

let close reg id =
  if Hashtbl.mem reg.sessions id then begin
    Hashtbl.remove reg.sessions id;
    true
  end
  else false

let count reg = Hashtbl.length reg.sessions

let list reg = Hashtbl.fold (fun _ s acc -> s :: acc) reg.sessions []

exception Reject of string

let insert_batches s ~batches =
  match
    List.fold_left
      (fun (db, delta) (rel, rows) ->
        try
          List.fold_left
            (fun (db, delta) row ->
              let row = Tuple.make row in
              (Database.add_tuple db rel row, Database.add_tuple delta rel row))
            (db, delta) rows
        with
        | Invalid_argument msg -> raise (Reject msg)
        | Not_found -> raise (Reject (Printf.sprintf "unknown relation %S" rel)))
      (s.db, Database.empty (Database.schema s.db))
      batches
  with
  | db, delta ->
    (* all batches validated against the staged database before any of
       them lands: one epoch bump, one closure re-check, whatever the
       batch count — and a rejected batch leaves the session untouched *)
    let base = s.db in
    s.db <- db;
    s.epoch <- s.epoch + 1;
    (* a violation is monotone: once broken, stay broken without
       re-searching.  Otherwise the pre-insert database satisfied V,
       so only the answers through the staged rows can escape *)
    if partially_closed s then
      s.closure_violation <-
        witness s.scenario db
          (Incremental.first_violated_delta (checker s) ~base ~delta ~db);
    Ok ()
  | exception Reject msg -> Error msg

let insert s ~rel ~rows = insert_batches s ~batches:[ (rel, rows) ]
