(** How the deciders run the valuation search.

    Every mode checks constraints through the one delta-first
    {!Ric_constraints.Incremental} checker (indexed by relation, delta
    evaluation for monotone-UCQ LHS queries) and returns identical
    verdicts; they differ only in how the search tree is walked:

    - [Seq] — one domain.  The default.
    - [Inc] — another spelling of [Seq] (the ["inc"] that clients and
      journals send): the same engine, kept so that spelling still
      parses, prints and counts under its own stats bucket.
    - [Par n] — a top-level fan-out of the search tree across [n]
      worker domains, with first-witness cancellation. *)

type t =
  | Seq
  | Inc
  | Par of int  (** worker domain count, [>= 1] *)

val default_domains : int
(** Domain count for the bare ["par"] spelling: 4. *)

val name : t -> string
(** ["seq"], ["inc"] or ["par"] — the stats-counter bucket. *)

val to_string : t -> string
(** ["seq"], ["inc"], ["par:<n>"] — round-trips through
    {!of_string}. *)

val of_string : string -> (t, string) result
(** Accepts ["seq"], ["inc"], ["par"] (= [Par default_domains]) and
    ["par:<n>"] with [n >= 1]. *)

val pp : Format.formatter -> t -> unit
