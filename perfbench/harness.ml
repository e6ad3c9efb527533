(* The harness's own arithmetic: percentiles and the tail rule, the
   failure classifier, and the capacity search over a stepped ladder.
   Pure functions over synthetic or measured numbers, so
   test_harness.exe can check them without a daemon. *)

module Json = Ric_text.Json

(* ------------------------------------------------------------------ *)
(* Percentiles *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = min (int_of_float pos) (n - 1) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q

let median xs = quantile xs 0.5

(* The highest percentile that still has at least 10 samples above
   it: with [n] samples sorted ascending that is the sample at rank
   [n - 11], i.e. percentile [100 (n - 10) / n].  Ten samples or fewer
   have no such percentile; the median stands in and the reported
   percentile says so (50). *)
let tail xs =
  let beyond = 10 in
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0.)
  else if n <= beyond then (quantile_sorted a 0.5, 50.)
  else (a.(n - beyond - 1), 100. *. float_of_int (n - beyond) /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Failure classifier *)

type outcome =
  | Ok_reply
  | Error_reply of string  (** [ok:false], with its kind *)
  | Overloaded
  | Timeout_verdict
  | Wrong  (** differs from the oracle or from the acknowledged count *)
  | Connection_error of string
  | Late  (** arrived after its [timeout_ms] plus the slack *)

let outcome_name = function
  | Ok_reply -> "ok"
  | Error_reply k -> "error:" ^ k
  | Overloaded -> "overloaded"
  | Timeout_verdict -> "timeout"
  | Wrong -> "wrong"
  | Connection_error _ -> "connection_error"
  | Late -> "late"

let failed o = o <> Ok_reply

let member k = function
  | Json.Obj fields -> List.assoc_opt k fields
  | _ -> None

let str_member k j = match member k j with Some (Json.Str s) -> Some s | _ -> None

let int_member k j = match member k j with Some (Json.Int n) -> Some n | _ -> None

let bool_member k j = match member k j with Some (Json.Bool b) -> Some b | _ -> None

(* Slack added to a request's [timeout_ms] before its reply counts as
   late: the daemon polls its deadline every 256 search steps, and a
   reply still has to be encoded and framed after the deadline fires. *)
let late_slack_ms = 250.

let is_timeout reply =
  let in_result =
    match member "result" reply with
    | Some r -> str_member "verdict" r = Some "timeout" || member "timeout" r <> None
    | None -> false
  in
  in_result || member "timeout" reply <> None

let classify ?timeout_ms ~elapsed_ms ~check reply =
  match reply with
  | Error msg -> Connection_error msg
  | Ok j ->
    (match bool_member "ok" j with
     | Some true ->
       if is_timeout j then Timeout_verdict
       else if
         match timeout_ms with
         | Some t -> elapsed_ms > float_of_int t +. late_slack_ms
         | None -> false
       then Late
       else if check j then Ok_reply
       else Wrong
     | _ ->
       (match str_member "kind" j with
        | Some "overloaded" -> Overloaded
        | Some k -> Error_reply k
        | None -> Error_reply "malformed"))

(* ------------------------------------------------------------------ *)
(* Capacity search over a stepped ladder of offered rates *)

type step = {
  offered_rps : float;
  sent : int;
  completed : int;  (** successful replies *)
  tail_ms : float;  (** {!tail} of latency from each request's due time *)
  backlog : int;  (** requests still unanswered when the step ended *)
  lag_p99_ms : float;  (** how late the generator sent, p99 *)
}

(* More requests outstanding when a step's schedule ends than the
   limit's worth of arrivals means the queue outgrew the latency limit. *)
let backlog_limit ~limit_ms rate = Float.max 4. (rate *. limit_ms /. 1000.)

let saturated ~limit_ms s = float_of_int s.backlog > backlog_limit ~limit_ms s.offered_rps

(* A step holds when its tail meets the limit, the generator kept its
   schedule, every request was answered successfully, and the backlog
   left at the step's end is within [backlog_limit]. *)
let step_ok ~limit_ms ~lag_limit_ms s =
  s.sent > 0
  && s.tail_ms <= limit_ms
  && s.lag_p99_ms <= lag_limit_ms
  && s.completed + s.backlog >= s.sent
  && not (saturated ~limit_ms s)

(* The highest offered rate whose step holds, refined by linear
   interpolation of the tail toward the next higher step when that
   one misses the latency limit, so the figure moves smoothly rather than jumping a
   whole ladder rung between runs.  [steps] need not be sorted; a
   failing step below a passing one does not lower the result. *)
let capacity ~limit_ms ~lag_limit_ms steps =
  let steps = List.sort (fun a b -> compare a.offered_rps b.offered_rps) steps in
  let passing = List.filter (step_ok ~limit_ms ~lag_limit_ms) steps in
  match List.rev passing with
  | [] -> 0.
  | best :: _ ->
    (match List.find_opt (fun s -> s.offered_rps > best.offered_rps) steps with
     | Some next when next.tail_ms > limit_ms && next.tail_ms > best.tail_ms ->
       let f = (limit_ms -. best.tail_ms) /. (next.tail_ms -. best.tail_ms) in
       best.offered_rps +. (f *. (next.offered_rps -. best.offered_rps))
     | _ -> best.offered_rps)
