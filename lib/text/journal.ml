open Ric_relational

type entry =
  | Opened of { id : string; name : string option; source : string }
  | Inserted of { id : string; rel : string; rows : Value.t list list }
  | Inserted_bulk of {
      id : string;
      batches : (string * Value.t list list) list;
    }
  | Closed of { id : string }

let m_appends =
  Ric_obs.Metrics.counter ~help:"journal records appended"
    "ric_journal_appends_total"

let m_replayed =
  Ric_obs.Metrics.counter ~help:"journal records replayed at recovery"
    "ric_journal_replayed_total"

let m_replay_skipped =
  Ric_obs.Metrics.counter
    ~help:"journal records skipped at recovery (unparseable or unknown)"
    "ric_journal_replay_skipped_total"

(* ------------------------------------------------------------------ *)
(* Encoding: one compact JSON object per line.  [Json.to_string]
   escapes control characters, so a scenario source full of newlines
   still serialises to a single line and [input_line] framing holds. *)

let json_of_value = function
  | Value.Int n -> Json.Int n
  | Value.Str s -> Json.Str s

let value_of_json = function
  | Json.Int n -> Ok (Value.Int n)
  | Json.Str s -> Ok (Value.Str s)
  | _ -> Error "row cells must be strings or integers"

let json_of_rows rows =
  Json.List (List.map (fun row -> Json.List (List.map json_of_value row)) rows)

let json_of_entry = function
  | Opened { id; name; source } ->
    Json.Obj
      ([ ("r", Json.Str "open"); ("id", Json.Str id) ]
      @ (match name with Some n -> [ ("name", Json.Str n) ] | None -> [])
      @ [ ("source", Json.Str source) ])
  | Inserted { id; rel; rows } ->
    Json.Obj
      [
        ("r", Json.Str "insert");
        ("id", Json.Str id);
        ("rel", Json.Str rel);
        ("rows", json_of_rows rows);
      ]
  | Inserted_bulk { id; batches } ->
    Json.Obj
      [
        ("r", Json.Str "insert_bulk");
        ("id", Json.Str id);
        ( "batches",
          Json.List
            (List.map
               (fun (rel, rows) ->
                 Json.Obj [ ("rel", Json.Str rel); ("rows", json_of_rows rows) ])
               batches) );
      ]
  | Closed { id } -> Json.Obj [ ("r", Json.Str "close"); ("id", Json.Str id) ]

let field fields k = List.assoc_opt k fields

let str_field fields k =
  match field fields k with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let ( let* ) = Result.bind

let rows_of_json = function
  | Json.List rows ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.List cells :: rest ->
        let rec cells_go cacc = function
          | [] -> go (List.rev cacc :: acc) rest
          | c :: cs ->
            (match value_of_json c with
             | Ok v -> cells_go (v :: cacc) cs
             | Error _ as e -> e)
        in
        cells_go [] cells
      | _ -> Error "each row must be a list of cells"
    in
    go [] rows
  | _ -> Error "field \"rows\" must be a list of rows"

let entry_of_json = function
  | Json.Obj fields ->
    let* r = str_field fields "r" in
    let* id = str_field fields "id" in
    (match r with
     | "open" ->
       let* source = str_field fields "source" in
       let name =
         match field fields "name" with Some (Json.Str n) -> Some n | _ -> None
       in
       Ok (Opened { id; name; source })
     | "insert" ->
       let* rel = str_field fields "rel" in
       (match field fields "rows" with
        | Some rows ->
          let* rows = rows_of_json rows in
          Ok (Inserted { id; rel; rows })
        | None -> Error "missing field \"rows\"")
     | "insert_bulk" ->
       (match field fields "batches" with
        | Some (Json.List bs) ->
          let rec go acc = function
            | [] -> Ok (Inserted_bulk { id; batches = List.rev acc })
            | Json.Obj bf :: rest ->
              let* rel = str_field bf "rel" in
              (match field bf "rows" with
               | Some rows ->
                 let* rows = rows_of_json rows in
                 go ((rel, rows) :: acc) rest
               | None -> Error "missing field \"rows\"")
            | _ :: _ -> Error "each batch must be an object"
          in
          go [] bs
        | Some _ -> Error "field \"batches\" must be a list"
        | None -> Error "missing field \"batches\"")
     | "close" -> Ok (Closed { id })
     | other -> Error (Printf.sprintf "unknown journal record %S" other))
  | _ -> Error "a journal record must be a JSON object"

(* ------------------------------------------------------------------ *)
(* The append side. *)

type t = { oc : out_channel; mutex : Mutex.t; path : string }

let open_append ?(truncate = false) path =
  let mode = if truncate then Open_trunc else Open_append in
  let oc = open_out_gen [ mode; Open_wronly; Open_creat ] 0o644 path in
  { oc; mutex = Mutex.create (); path }

let path t = t.path

(* One record under the lock: [write] puts the line's bytes on the
   channel, then the newline and the flush end it. *)
let write_record t write =
  Mutex.lock t.mutex;
  (try
     write t.oc;
     output_char t.oc '\n';
     flush t.oc
   with e ->
     Mutex.unlock t.mutex;
     raise e);
  Mutex.unlock t.mutex;
  Ric_obs.Metrics.incr m_appends

let append t entry =
  write_record t (fun oc -> output_string oc (Json.to_string (json_of_entry entry)))

(* The [open] record of [json_of_entry], field for field, with the
   source printed through a formatter whose output goes through the
   JSON escaper onto the channel.  A fresh formatter has the default
   margin, as [Format.asprintf]'s has, so the layout, and hence every
   byte, is the same. *)
let append_opened t ~id ~name print =
  let str oc s =
    output_char oc '"';
    Json.escape_to (output_substring oc) s 0 (String.length s);
    output_char oc '"'
  in
  write_record t (fun oc ->
      output_string oc "{\"r\":\"open\",\"id\":";
      str oc id;
      Option.iter
        (fun n ->
          output_string oc ",\"name\":";
          str oc n)
        name;
      output_string oc ",\"source\":\"";
      let ppf =
        Format.make_formatter (Json.escape_to (output_substring oc)) ignore
      in
      Format.fprintf ppf "%t@?" print;
      output_char oc '"';
      output_char oc '}')

let close t =
  Mutex.lock t.mutex;
  (try close_out t.oc with Sys_error _ -> ());
  Mutex.unlock t.mutex

(* ------------------------------------------------------------------ *)
(* The replay side. *)

type replay = {
  entries : entry list;
  skipped : int;
  torn_tail : bool;
}

let replay_file path =
  let ic = open_in path in
  let entries = ref [] and skipped = ref 0 and torn = ref false in
  (try
     let rec go () =
       match input_line ic with
       | exception End_of_file -> ()
       | line ->
         if String.trim line <> "" then begin
           match Json.of_string_result line with
           | Error _ ->
             (* a torn tail from a crash mid-append parses as garbage;
                anything after it is unreliable, so stop here *)
             torn := true
           | Ok json ->
             (match entry_of_json json with
              | Ok e -> entries := e :: !entries
              | Error _ -> incr skipped);
             go ()
         end
         else go ()
     in
     go ()
   with e ->
     close_in_noerr ic;
     raise e);
  close_in_noerr ic;
  Ric_obs.Metrics.add m_replayed (List.length !entries);
  Ric_obs.Metrics.add m_replay_skipped !skipped;
  { entries = List.rev !entries; skipped = !skipped; torn_tail = !torn }
