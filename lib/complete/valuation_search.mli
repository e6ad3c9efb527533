(** Pruned enumeration of valid tableau valuations over the active
    domain — the engine behind both deciders.

    A {e valid} valuation [μ] (Section 3.2) draws each variable's
    value from its [adom(y)] and observes the tableau's inequalities.
    The search instantiates the tableau atom by atom; after each atom
    it checks the supplied containment constraints against either the
    accumulated extension alone ([`Delta_only], condition C3 for INDs)
    or the base database plus the extension ([`Against_base D],
    condition C2).  Because the constraint languages are monotone, a
    violation can never be repaired by binding more variables, so the
    whole subtree is pruned.

    Both entry points check through the decide's
    {!Ric_constraints.Incremental} checker: the root state is checked
    in full once, then each extension step touches only the
    constraints reading the grown relation (and, for monotone-UCQ
    constraints, only the joins through the new tuple).  When the root
    state already violates the constraints, no extension can satisfy
    them (they are monotone), so the search returns [false] without
    enumerating — except for a tableau with no atoms, whose single
    valuation is visited as it stands. *)

open Ric_relational
open Ric_query
open Ric_constraints

val iter_valid :
  ?budget:Budget.t ->
  ?profile:Ric_obs.Profile.t ->
  ?base_closed:bool ->
  checker:Incremental.t ->
  mode:[ `Against_base of Database.t | `Delta_only ] ->
  adom:Adom.t ->
  ?on_prune:(unit -> unit) ->
  Tableau.t ->
  (Valuation.t -> Database.t -> bool) ->
  bool
(** [iter_valid ~checker ~mode ~adom tab visit] calls
    [visit μ Δ] — with [Δ = μ(T)] — for every valid valuation whose
    extension passes the constraint check; stops early when [visit]
    returns [true] and reports whether any visit did.  [budget]
    (default {!Budget.unlimited}) is checked on entry and ticked once
    per candidate atom instantiation, so an exhausted budget aborts
    the search with {!Budget.Exhausted} before doing any work.

    [profile] (explain mode) mirrors every tick as a per-level step in
    the profile and attributes each pruned branch to the containment
    constraint that cut it (via the checkers' explain twins); partial
    counts are merged even when the budget exhausts mid-search.
    Omitted, the only cost is one option match per candidate.

    [base_closed] (default [false]): the caller vouches that the base
    of [`Against_base D] already satisfies every constraint of
    [checker], so the root's full check is skipped.  A decider that
    searches the same closed [D] once per UCQ disjunct then pays no
    full check of [V] per disjunct. *)

val iter_valid_par :
  ?budget:Budget.t ->
  ?profile:Ric_obs.Profile.t ->
  ?base_closed:bool ->
  checker:Incremental.t ->
  domains:int ->
  mode:[ `Against_base of Database.t | `Delta_only ] ->
  adom:Adom.t ->
  ?on_prune:(unit -> unit) ->
  Tableau.t ->
  (Valuation.t -> Database.t -> bool) ->
  bool
(** Like {!iter_valid}, but the search tree is explored by up to
    [domains] worker domains stealing subtree tasks from a shared
    lock-free frontier.  The instantiation order is computed once up
    front (the greedy pick depends only on the bound-variable set), so
    the parallel tasks partition the sequential tree: verdicts, step
    totals and prune counts all coincide with {!iter_valid} on
    exhaustive searches.  A search that stops at a first witness ends
    wherever the racing workers are, so its step and prune counts may
    differ from a sequential run's (the verdict does not).  A worker that pops a task runs its whole
    subtree inline unless the frontier is starved (fewer queued tasks
    than workers), in which case it expands one atom level and pushes
    each surviving child subtree — skewed partitions split below the
    first variable on demand instead of degenerating to one long
    branch ([ric_search_steal_total] counts cross-worker pops).

    [visit] and [on_prune] are serialised under one mutex (prunes are
    batched per task), so rcdp's counting visitors need no changes.
    [profile] recording is per-worker (private arrays, merged once when
    the worker stops); on an exhaustive search the merged profile
    equals the sequential one.
    The first visit returning [true] cancels the sibling workers
    through a per-call stop flag.  Step accounting uses one shared
    atomic counter ({!Budget.fork_shared}), so the family can never
    overshoot the parent's step cap; the total is folded back into
    [budget] on join, and exhaustion re-raises {!Budget.Exhausted}
    from the coordinator.  A task raising anything else (e.g. an
    injected worker crash) is retried once, then the error is
    re-raised — never a hang.

    With [domains <= 1], no branching level anywhere, or a one-core
    clamp it degrades to {!iter_valid} (zero coordination overhead).
    [domains] partitions the work but never spawns more worker domains
    than [Stdlib.Domain.recommended_domain_count ()] — oversubscribing
    a saturated runtime only costs GC synchronisation; the
    [RIC_SEARCH_FORCE_WORKERS] environment variable overrides the
    clamp for scaling sweeps and concurrency tests. *)

val set_fault_hook : (unit -> unit) -> unit
(** Install the fault-injection hook called at the start of every
    frontier task a parallel worker executes (default: no-op).  The
    service layer points it at its RIC_FAULTS harness (point
    ["search_worker"]) so crash drills can exercise the retry-once /
    structured-error path without a layering cycle. *)
