(** Incremental containment checking: the one constraint checker of
    the valuation search, in every search mode.

    The deciders grow candidate extensions one tuple at a time and must
    re-establish [(D, Dm) ⊨ V] after every growth step.  Re-evaluating
    each CC from scratch costs O(|D|) per step; a checker built once
    per decide call does better on two axes:

    - {b relation indexing} — CCs are indexed by the relations their
      LHS mentions, so a tuple added to [R] only re-checks CCs reading
      [R], in declaration order;
    - {b delta evaluation} — for a monotone LHS with a UCQ form, every
      answer new in [D + t] must use [t] in at least one atom position,
      so only the joins through the inserted tuple are enumerated (on
      the compiled kernel) and checked against a cached evaluation of
      the RHS projection.

    Soundness of the step checks rests on a parent invariant: the
    database {e before} the insertion already satisfied every CC.  The
    search checks the root state with {!full} (or {!empty_ok}) and
    every accepted extension was checked on the way in.  When the root
    fails, no extension can pass either, since the deciders only admit
    monotone CCs, so the search stops there.  LHS languages outside the
    monotone-UCQ fragment (FP, non-monotone FO, unsafe queries) are
    handled by a per-CC full evaluation against the cached RHS, so
    verdicts, and the errors unsafe queries raise, are identical to
    {!Containment.holds_all}. *)

open Ric_relational

type t

val create :
  schema:Schema.t -> master:Database.t -> Containment.t list -> t
(** Build the index: cache [Projection.eval master rhs] per CC, compile
    delta plans for monotone-UCQ LHS queries, and record whether the
    empty database over [schema] satisfies every CC (see
    {!empty_ok}). *)

val empty_ok : t -> bool
(** Whether the empty database satisfies every CC — the parent
    invariant for searches growing extensions from nothing
    ([`Delta_only] mode). *)

val check_add_overlay :
  t ->
  base:Database.t ->
  delta:Database.t ->
  db:Database.t ->
  rel:string ->
  tuple:Tuple.t ->
  bool
(** [check_add_overlay t ~base ~delta ~db ~rel ~tuple] — does [db]
    still satisfy every CC, given that [db] is the previous state plus
    [tuple] inserted into [rel], that the previous state satisfied
    every CC, and that [db = base ∪ delta] with [tuple] in [delta]?
    Only CCs reading [rel] are touched, and monotone-UCQ CCs only
    through the inserted tuple: their joins probe persistent column
    indexes over the fixed [base] on the compiled kernel and treat
    [delta]'s interned rows as a small overlay, so no index is rebuilt
    per step.  [db] is what full evaluations (non-UCQ CCs) see. *)

val check_add_overlay_explain :
  t ->
  base:Database.t ->
  delta:Database.t ->
  db:Database.t ->
  rel:string ->
  tuple:Tuple.t ->
  string option
(** Like {!check_add_overlay} but, on failure, names the first
    violated constraint in declaration order (its [cc_name]); [None]
    means the check passed.  The explain-profile path —
    verdict-identical to {!check_add_overlay}. *)

val full : t -> db:Database.t -> bool
(** Full check of every CC against [db] (on the compiled kernel, over
    the checker's persistent index store, with the cached RHS
    relations).  Used to establish the parent invariant at search
    entry. *)

val first_violated : t -> db:Database.t -> Containment.t option
(** {!full}, naming the first CC in declaration order that [db]
    violates — the same CC as {!Containment.first_violation}. *)

val first_violated_delta :
  t ->
  base:Database.t ->
  delta:Database.t ->
  db:Database.t ->
  Containment.t option
(** [first_violated_delta t ~base ~delta ~db] — the first CC in
    declaration order that [db = base ∪ delta] violates, given that
    [base] satisfies every CC (the parent invariant).  A whole batch
    in one call: each [delta] tuple is probed at each atom position of
    the monotone-UCQ CCs reading its relation, with all of [delta]
    interned once as the overlay, so nothing is evaluated over all of
    [db]; a CC outside that fragment is evaluated in full against [db]
    once, and only when [delta] grows a relation it reads.  Tuples of
    [delta] already in [base] are harmless.  Equal to
    {!first_violated} [t ~db] under the parent invariant. *)
