(* The two load generators.  A closed loop sends one request, waits for
   its reply and sends the next; an open loop sends on a Poisson
   schedule over several pipelined connections whatever the replies
   do, and times each request from when it was due. *)

module Json = Ric_text.Json
module Protocol = Ric_service.Protocol

let now = Unix.gettimeofday

type req = {
  op : string;
  tag : string;  (** what the request is about, for the samples file *)
  json : Json.t;
  timeout_ms : int option;
  check : Json.t -> bool;  (** the output check, against the oracle *)
  on_reply : Json.t -> unit;  (** the workload's state update on success *)
}

let req ?timeout_ms ?(check = fun _ -> true) ?(on_reply = ignore) ?(tag = "") op json =
  { op; tag; json; timeout_ms; check; on_reply }

type sample = {
  s_op : string;
  s_tag : string;
  latency_ms : float;
  outcome : Harness.outcome;
  done_at : float;  (** seconds since the loop started *)
}

type run = {
  samples : sample list;  (** in completion order *)
  wall_s : float;
  lags_ms : float list;
      (** open loop: how late each send was against its due time;
          closed loop: the harness's own gap between a reply and the
          next send *)
  backlog : int;  (** open loop: unanswered when the phase ended *)
  backlog_peak : int;  (** most requests outstanding at once *)
  conn_waits_ms : float list;
      (** open loop: how long each request waited behind the earlier
          ones on its connection, from its send to the previous reply
          on that connection (ricd serves one request per connection
          at a time); closed loop: none *)
}

let latencies ?(only_ok = true) ops run =
  List.filter_map
    (fun s ->
      if List.mem s.s_op ops && ((not only_ok) || s.outcome = Harness.Ok_reply) then
        Some s.latency_ms
      else None)
    run.samples

let successes run =
  List.length (List.filter (fun s -> s.outcome = Harness.Ok_reply) run.samples)

let failures run = List.length run.samples - successes run

(* A reply that never comes must not hang the run. *)
let receive_timeout_s = 60.

let connect socket =
  let c = Ricd.connect socket in
  Unix.setsockopt_float c Unix.SO_RCVTIMEO receive_timeout_s;
  c

let settle (r : req) reply ~elapsed_ms =
  let outcome = Harness.classify ?timeout_ms:r.timeout_ms ~elapsed_ms ~check:r.check reply in
  (match (outcome, reply) with Harness.Ok_reply, Ok j -> r.on_reply j | _ -> ());
  outcome

let report_failure (r : req) outcome reply =
  if Harness.failed outcome then
    Printf.eprintf "perfbench: %s failed (%s): %s\n%!" r.op (Harness.outcome_name outcome)
      (match reply with
       | Ok j ->
         let s = Json.to_string j in
         if String.length s > 300 then String.sub s 0 300 ^ "..." else s
       | Error m -> m)

(* [after] runs once per request, after its reply, outside the timed
   round trip: the traced run hangs its in-process layer calls there. *)
let closed_loop ?(after = fun _ ~t0:_ ~t1:_ _ -> ()) c ~seconds next =
  let start = now () in
  let deadline = start +. seconds in
  let samples = ref [] and gaps = ref [] in
  let last = ref start in
  while now () < deadline do
    let r = next () in
    let t0 = now () in
    gaps := ((t0 -. !last) *. 1000.) :: !gaps;
    let reply = Ricd.call c r.json in
    let t1 = now () in
    let elapsed_ms = (t1 -. t0) *. 1000. in
    let outcome = settle r reply ~elapsed_ms in
    report_failure r outcome reply;
    samples :=
      { s_op = r.op; s_tag = r.tag; latency_ms = elapsed_ms; outcome; done_at = t1 -. start }
      :: !samples;
    after r ~t0 ~t1 reply;
    last := now ()
  done;
  {
    samples = List.rev !samples;
    wall_s = now () -. start;
    lags_ms = !gaps;
    backlog = 0;
    backlog_peak = (if !samples = [] then 0 else 1);
    conn_waits_ms = [];
  }

(* ------------------------------------------------------------------ *)
(* Open loop *)

(* Incoming bytes of one connection, cut into frames. *)
type inbox = {
  mutable data : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

let inbox () = { data = Bytes.create 65536; lo = 0; hi = 0 }

let fill ib fd =
  if ib.hi = Bytes.length ib.data then begin
    let live = ib.hi - ib.lo in
    let data = if live * 2 > Bytes.length ib.data then Bytes.create (Bytes.length ib.data * 2) else ib.data in
    Bytes.blit ib.data ib.lo data 0 live;
    ib.data <- data;
    ib.lo <- 0;
    ib.hi <- live
  end;
  let n = Unix.read fd ib.data ib.hi (Bytes.length ib.data - ib.hi) in
  ib.hi <- ib.hi + n;
  n

let next_frame ib =
  if ib.hi - ib.lo < 4 then None
  else
    let len = Int32.to_int (Bytes.get_int32_be ib.data ib.lo) land 0xFFFFFFFF in
    if ib.hi - ib.lo - 4 < len then None
    else begin
      let payload = Bytes.sub_string ib.data (ib.lo + 4) len in
      ib.lo <- ib.lo + 4 + len;
      if ib.lo = ib.hi then begin
        ib.lo <- 0;
        ib.hi <- 0
      end;
      Some payload
    end

type inflight = {
  ireq : req;
  due : float;
  sent : float;
}

type lane = {
  fd : Unix.file_descr;
  pending : inflight Queue.t;  (** replies come back in send order *)
  ib : inbox;
  mutable broken : bool;
  mutable last_reply : float;  (** when this connection's latest reply came *)
}

let lanes sockets =
  List.map
    (fun fd -> { fd; pending = Queue.create (); ib = inbox (); broken = false; last_reply = 0. })
    sockets

let write_all fd s =
  let b = Protocol.frame_bytes s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* How long an open loop waits for the replies still owed once its
   schedule has ended. *)
let drain_s = 5.

(* Offer [rate] requests per second for [seconds], round-robin over
   [lanes], then wait up to [drain_s] for the replies still owed. *)
let open_loop ~rng ~rate ~seconds lanes next =
  let start = now () in
  let stop = start +. seconds in
  let arrays = Array.of_list lanes in
  let rr = ref 0 in
  let samples = ref [] and lags = ref [] and waits = ref [] in
  let peak = ref 0 in
  let record (r : req) outcome latency_ms =
    samples :=
      { s_op = r.op; s_tag = r.tag; latency_ms; outcome; done_at = now () -. start } :: !samples
  in
  let exp_gap () = -.log (1. -. Random.State.float rng 1.) /. rate in
  let next_due = ref (start +. exp_gap ()) in
  let send (r : req) due =
    let lane = arrays.(!rr mod Array.length arrays) in
    incr rr;
    lags := ((now () -. due) *. 1000.) :: !lags;
    match write_all lane.fd (Json.to_string r.json) with
    | () ->
      Queue.push { ireq = r; due; sent = now () } lane.pending;
      peak := max !peak (List.fold_left (fun n l -> n + Queue.length l.pending) 0 lanes)
    | exception Unix.Unix_error (e, _, _) ->
      let reply = Error (Unix.error_message e) in
      let outcome = settle r reply ~elapsed_ms:0. in
      report_failure r outcome reply;
      record r outcome 0.
  in
  let on_frame lane payload =
    match Queue.take_opt lane.pending with
    | None -> ()
    | Some inf ->
      let reply = Ricd.decode payload in
      let t = now () in
      waits := (Float.max 0. (lane.last_reply -. inf.sent) *. 1000.) :: !waits;
      lane.last_reply <- t;
      let elapsed_ms = (t -. inf.due) *. 1000. in
      let outcome = settle inf.ireq reply ~elapsed_ms in
      report_failure inf.ireq outcome reply;
      record inf.ireq outcome elapsed_ms
  in
  let fail_lane lane msg =
    lane.broken <- true;
    Queue.iter
      (fun inf ->
        let reply = Error msg in
        let outcome = settle inf.ireq reply ~elapsed_ms:0. in
        report_failure inf.ireq outcome reply;
        record inf.ireq outcome 0.)
      lane.pending;
    Queue.clear lane.pending
  in
  let outstanding () = List.fold_left (fun n l -> n + Queue.length l.pending) 0 lanes in
  let pump timeout =
    let fds = List.filter_map (fun l -> if l.broken then None else Some l.fd) lanes in
    match Unix.select fds [] [] (Float.max 0. timeout) with
    | readable, _, _ ->
      List.iter
        (fun lane ->
          if List.mem lane.fd readable then
            match fill lane.ib lane.fd with
            | 0 -> fail_lane lane "connection closed"
            | _ ->
              let rec drain () =
                match next_frame lane.ib with
                | Some p ->
                  on_frame lane p;
                  drain ()
                | None -> ()
              in
              drain ()
            | exception Unix.Unix_error (e, _, _) -> fail_lane lane (Unix.error_message e))
        lanes
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  while now () < stop do
    while !next_due <= now () && !next_due < stop do
      send (next ()) !next_due;
      next_due := !next_due +. exp_gap ()
    done;
    pump (Float.min (!next_due -. now ()) (stop -. now ()))
  done;
  let backlog = outstanding () in
  let drain_until = now () +. drain_s in
  while outstanding () > 0 && now () < drain_until do
    pump 0.05
  done;
  List.iter
    (fun l -> if not (Queue.is_empty l.pending) then fail_lane l "no reply before the drain deadline")
    lanes;
  {
    samples = List.rev !samples;
    wall_s = stop -. start;
    lags_ms = !lags;
    backlog;
    backlog_peak = !peak;
    conn_waits_ms = !waits;
  }

(* Runs one after another as one run; completion times count from the
   first run's start, leaving out the gaps between runs. *)
let concat runs =
  let offset = ref 0. in
  let samples =
    List.concat_map
      (fun r ->
        let o = !offset in
        offset := o +. r.wall_s;
        List.map (fun s -> { s with done_at = s.done_at +. o }) r.samples)
      runs
  in
  {
    samples;
    wall_s = !offset;
    lags_ms = List.concat_map (fun r -> r.lags_ms) runs;
    backlog = List.fold_left (fun n r -> n + r.backlog) 0 runs;
    backlog_peak = List.fold_left (fun n r -> max n r.backlog_peak) 0 runs;
    conn_waits_ms = List.concat_map (fun r -> r.conn_waits_ms) runs;
  }
