(** A minimal JSON value type, printer and parser (no external
    dependency), used by {!Report}, the CLI's [--json] mode and the
    {!Ric_service} wire protocol. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

val pp : Format.formatter -> t -> unit
(** Compact, valid JSON with correctly escaped strings. *)

val to_string : t -> string

val escape : string -> string
(** The body of a JSON string literal holding the argument, without
    the surrounding quotes: the escaper {!pp} applies to every string
    and key. *)

val escape_to : (string -> int -> int -> unit) -> string -> int -> int -> unit
(** [escape_to emit s pos len] — {!escape} of [String.sub s pos len],
    streamed: [emit str off n] is called with each unescaped run (a
    slice of [s]) and each escape sequence, in order, so nothing is
    built as one string. *)

exception Parse_error of string * int * int
(** message, line, column (1-based), as in {!Scenario.Parse_error}. *)

val of_string : string -> t
(** Parse one JSON value; the whole input must be consumed (trailing
    whitespace allowed).  Numbers must be integers — this type has no
    float constructor, and a fractional literal is a positioned error,
    not a silent truncation.  Object key order and duplicates are
    preserved.  [of_string (to_string v) = v] for every [v]
    (property-tested).
    @raise Parse_error on malformed input, with position. *)

val of_string_result : string -> (t, string * int * int) result
(** Like {!of_string} but returning the error. *)

val of_channel : in_channel -> t
(** Read the channel to EOF and parse it as one JSON value.
    @raise Parse_error as {!of_string}. *)
