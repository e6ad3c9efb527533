(* Spans of the traced run, kept in memory and written at the end in
   the JSON-lines shape Ric_obs.Trace emits, so [ric trace summarize]
   reads them:

     {"id":12,"parent":3,"name":"complete.rcdp","start_us":812,
      "dur_us":5412,"attrs":{"req_id":"pb-41"}}

   A request's root span is its socket round trip; its children wrap
   the bench's in-process calls into each layer's public functions. *)

module Json = Ric_text.Json

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  start_us : int;
  dur_us : int;
  attrs : (string * Json.t) list;
}

let origin = Unix.gettimeofday ()

let us_of t = int_of_float ((t -. origin) *. 1e6)

let recorded : span list ref = ref []

let next_id = ref 0

(* Durations by span name, in seconds, for the per-layer medians. *)
let durations : (string, float list) Hashtbl.t = Hashtbl.create 64

let durations_of name = Option.value ~default:[] (Hashtbl.find_opt durations name)

let record ~id ~parent ~attrs name ~t0 ~t1 =
  recorded :=
    { id; parent; name; start_us = us_of t0; dur_us = us_of t1 - us_of t0; attrs } :: !recorded;
  Hashtbl.replace durations name ((t1 -. t0) :: durations_of name)

let fresh_id () =
  incr next_id;
  !next_id

(* A root span measured elsewhere, between [t0] and [t1]; returns its
   id. *)
let add ~attrs name ~t0 ~t1 =
  let id = fresh_id () in
  record ~id ~parent:0 ~attrs name ~t0 ~t1;
  id

(* Run [f] inside a span: [f] receives the span's id (to parent its
   own children), and the duration comes back beside the result. *)
let timed ~parent name f =
  let id = fresh_id () in
  let t0 = Unix.gettimeofday () in
  let v = f id in
  let t1 = Unix.gettimeofday () in
  record ~id ~parent ~attrs:[] name ~t0 ~t1;
  (v, t1 -. t0)

let median_of name scale =
  match durations_of name with
  | [] -> 0.
  | ds -> Harness.median ds *. scale

let write file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("id", Json.Int s.id);
                    ("parent", Json.Int s.parent);
                    ("name", Json.Str s.name);
                    ("start_us", Json.Int s.start_us);
                    ("dur_us", Json.Int s.dur_us);
                    ("attrs", Json.Obj s.attrs);
                  ]));
          output_char oc '\n')
        (List.rev !recorded))
