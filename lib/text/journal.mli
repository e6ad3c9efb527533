(** The session journal: crash recovery for a long-running completeness
    service.

    An append-only file of JSON-lines records — one [open], [insert] or
    [close] per line — written as the service mutates its session
    registry.  After a crash, replaying the journal rebuilds the exact
    registry: the [open] record carries the {e printed} scenario (not
    just its path), so recovery does not depend on the original file
    still existing or being unchanged, and replayed [insert]s restore
    each session's database and epoch.

    The format is deliberately torn-tail tolerant: every record is one
    line, [Json.to_string] escapes all control characters, and
    {!replay_file} stops at the first unparseable line — exactly what a
    crash mid-append leaves behind — rather than failing the whole
    recovery. *)

open Ric_relational

type entry =
  | Opened of { id : string; name : string option; source : string }
      (** [source] is the scenario printed by {!Scenario.pp} (which
          round-trips through {!Scenario.parse}) *)
  | Inserted of { id : string; rel : string; rows : Value.t list list }
  | Inserted_bulk of {
      id : string;
      batches : (string * Value.t list list) list;
    }
      (** one [insert_bulk] request: several relations' rows applied as
          a single mutation — one journal record, one epoch *)
  | Closed of { id : string }

val json_of_entry : entry -> Json.t

val entry_of_json : Json.t -> (entry, string) result

(** {2 Appending} *)

type t

val open_append : ?truncate:bool -> string -> t
(** Open (creating if needed) the journal for appending.  Writes are
    serialised behind an internal mutex and flushed per record.
    [truncate] starts the file afresh — recovery uses it to compact
    the journal down to the entries that are still live. *)

val path : t -> string

val append : t -> entry -> unit

val append_opened :
  t -> id:string -> name:string option -> (Format.formatter -> unit) -> unit
(** [append_opened t ~id ~name print] appends the [open] record whose
    source is what [print] prints, streamed: the printer's output goes
    through the JSON escaper straight onto the channel, so the source
    is never built as a string.  The bytes are exactly those of
    [append t (Opened {id; name; source = Format.asprintf "%t" print})]. *)

val close : t -> unit

(** {2 Replaying} *)

type replay = {
  entries : entry list;  (** in write order *)
  skipped : int;  (** well-formed JSON lines that were not valid records *)
  torn_tail : bool;
      (** true when the file ends in a partial line (crash mid-append);
          everything before it was still replayed *)
}

val replay_file : string -> replay
(** @raise Sys_error when the file cannot be read at all. *)
