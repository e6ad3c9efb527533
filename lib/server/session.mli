(** The session registry: each session pins one parsed [.ric] scenario
    — master data [Dm], constraints [V], queries — plus a {e mutable}
    database [D] that grows through [insert] requests, so repeated
    RCDP/RCQP requests never re-parse or re-load anything.

    The [epoch] counts database mutations; it keys the verdict cache,
    so stale verdicts are unreachable by construction.  Partial
    closure [(D, Dm) ⊨ V] is tracked across inserts: the paper only
    defines RCDP on partially closed databases, and the first violated
    constraint is kept for error reporting.  Both checks run on the
    session's compiled {!Ric_constraints.Incremental} checker: a full
    check at open, then, while the session is closed, a delta check of
    each insert's rows against the pre-insert [D] (the parent
    invariant), never a re-evaluation of [V] over all of [D].  Only a
    violated constraint is evaluated again, interpreted, for the
    witness replies report.  The checker is built per request (see
    {!checker}), so neither its kernel indexes nor its RHS caches
    outlive the request that built them.

    This module performs no locking; {!Service} serialises all access
    to a registry behind its own mutex. *)

open Ric_relational

type t = {
  id : string;  (** registry-unique, of the form ["s1"], ["s2"], ... *)
  name : string option;  (** client-supplied label, for logs *)
  scenario : Ric_text.Scenario.t;  (** immutable: schemas, [Dm], [V], queries *)
  ccs_fingerprint : string;
      (** digest of the printed constraint set — part of every cache
          key, so two sessions over different [V] can never share a
          verdict *)
  mutable db : Database.t;
  mutable epoch : int;  (** bumped by every successful {!insert} *)
  mutable closure_violation : (string * Tuple.t) option;
      (** [Some (cc_name, witness)] when [(D, Dm) ⊭ V] *)
}

val partially_closed : t -> bool

val checker : t -> Ric_constraints.Incremental.t
(** A fresh compiled checker for the session's [V]: compiled plans,
    RHS relations cached from [Dm], an empty index store.  Build one
    per request and drop it with the request; keeping one alive keeps
    its caches and every index it built. *)

val find_query : t -> string -> Ric_query.Lang.t option

val query_names : t -> string list

type registry

val create : unit -> registry

val open_scenario : registry -> ?id:string -> ?name:string -> Ric_text.Scenario.t -> t
(** Register a freshly parsed scenario under a new session id, with
    its partial-closure status already computed.  [id] forces the
    session id (journal replay restores sessions under their original
    ids) and advances the id counter past it. *)

val find : registry -> string -> t option

val close : registry -> string -> bool
(** [false] when the id is unknown. *)

val count : registry -> int

val list : registry -> t list

val insert : t -> rel:string -> rows:Value.t list list -> (unit, string) result
(** Add tuples to relation [rel] of the session's database, bump the
    epoch and re-check partial closure.  [Error] (schema violations —
    unknown relation, wrong arity, value outside a finite attribute
    domain) leaves the session untouched.  An insert that breaks a
    containment constraint {e succeeds} — the session records the
    violation and RCDP/audit requests then answer
    [not_partially_closed].  Because every supported [LC] is
    monotone, a violation can never be repaired by further inserts;
    it is the client's signal to fix its feed and open a fresh
    session. *)

val insert_batches :
  t -> batches:(string * Value.t list list) list -> (unit, string) result
(** {!insert} for several relations at once, as one mutation: all
    batches are validated against the staged database before any of
    them lands, the epoch is bumped {e once} and partial closure is
    re-checked {e once} — the unit cost that made per-tuple inserts a
    bottleneck for bulk feeds.  [Error] (the first schema violation)
    leaves the session completely untouched.

    The re-check runs only while the session is partially closed, so
    the pre-insert [D] satisfies [V]: the staged rows are delta-checked
    as one batch with {!Ric_constraints.Incremental.first_violated_delta}
    (base = the pre-insert [D], delta = the staged rows), touching only
    the constraints that read a grown relation and, for monotone-UCQ
    ones, only the joins through a staged row.  The recorded
    [(cc_name, witness)] is the one {!Ric_constraints.Containment.first_violation}
    gives on the post-insert [D]. *)
