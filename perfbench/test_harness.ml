(* Self-tests of the harness on synthetic numbers: the tail rule, the
   failure classifier and the capacity search.  Run by [dune runtest]. *)

module Json = Ric_text.Json
open Harness

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let range n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* percentiles and the tail rule *)
  check "median of four" (close (median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "p99 interpolates" (close (quantile (range 101) 0.99) 100.);
  let v, pct = tail (range 100) in
  check "tail of 100 is the 11th largest" (close v 90. && close pct 90.);
  let v, pct = tail (range 1000) in
  check "tail of 1000 is p99" (close v 990. && close pct 99.);
  let v, pct = tail (range 11) in
  check "tail of 11 is the smallest" (close v 1. && close pct (100. /. 11.));
  let v, pct = tail (range 10) in
  check "tail of 10 falls back to the median" (close v 5.5 && close pct 50.);
  let v, _ = tail (List.rev (range 50)) in
  check "tail ignores input order" (close v 40.)

let reply fields = Ok (Json.Obj fields)

let verdict v = ("result", Json.Obj [ ("verdict", Json.Str v) ])

let () =
  (* the failure classifier *)
  let expect_complete j =
    match member "result" j with
    | Some r -> str_member "verdict" r = Some "complete"
    | None -> false
  in
  let classify = classify ~timeout_ms:1000 ~check:expect_complete in
  check "ok reply" (classify ~elapsed_ms:10. (reply [ ("ok", Json.Bool true); verdict "complete" ]) = Ok_reply);
  check "wrong verdict"
    (classify ~elapsed_ms:10. (reply [ ("ok", Json.Bool true); verdict "incomplete" ]) = Wrong);
  check "timeout verdict"
    (classify ~elapsed_ms:10. (reply [ ("ok", Json.Bool true); verdict "timeout" ]) = Timeout_verdict);
  check "timed-out mine"
    (classify ~elapsed_ms:10.
       (reply [ ("ok", Json.Bool true); ("result", Json.Obj [ ("timeout", Json.Str "deadline") ]) ])
    = Timeout_verdict);
  check "late reply"
    (classify ~elapsed_ms:(1000. +. late_slack_ms +. 1.)
       (reply [ ("ok", Json.Bool true); verdict "complete" ])
    = Late);
  check "within the slack"
    (classify ~elapsed_ms:(1000. +. late_slack_ms -. 1.)
       (reply [ ("ok", Json.Bool true); verdict "complete" ])
    = Ok_reply);
  check "overloaded"
    (classify ~elapsed_ms:1.
       (reply [ ("ok", Json.Bool false); ("kind", Json.Str "overloaded"); ("retry_after_ms", Json.Int 5) ])
    = Overloaded);
  check "error reply"
    (classify ~elapsed_ms:1. (reply [ ("ok", Json.Bool false); ("kind", Json.Str "unknown_session") ])
    = Error_reply "unknown_session");
  check "connection error"
    (match classify ~elapsed_ms:1. (Error "connection closed") with
     | Connection_error _ -> true
     | _ -> false);
  check "no deadline, never late"
    (Harness.classify ~check:(fun _ -> true) ~elapsed_ms:1e9 (reply [ ("ok", Json.Bool true) ]) = Ok_reply);
  check "every non-ok outcome fails"
    (List.for_all failed [ Wrong; Late; Overloaded; Timeout_verdict; Error_reply "x"; Connection_error "x" ]
    && not (failed Ok_reply))

let step ?(backlog = 0) ?(lag = 0.1) ?(completed_share = 1.) rate p99 =
  let sent = int_of_float rate in
  {
    offered_rps = rate;
    sent;
    completed = int_of_float (completed_share *. float_of_int sent) - backlog;
    tail_ms = p99;
    backlog;
    lag_p99_ms = lag;
  }

let () =
  (* the capacity search *)
  let cap = capacity ~limit_ms:5. ~lag_limit_ms:2. in
  let ladder = [ step 100. 1.; step 200. 2.; step 400. 3.; step 800. 8.; step 1600. 30. ] in
  check "interpolates toward the first step over the limit" (close (cap ladder) 560.);
  check "order of steps does not matter" (close (cap (List.rev ladder)) 560.);
  check "a failing step below a passing one does not lower it"
    (close (cap [ step 100. 1.; step 200. 9.; step 400. 3.; step 800. 8. ]) 560.);
  check "top step passing is the capacity" (close (cap [ step 100. 1.; step 200. 2. ]) 200.);
  check "a growing backlog fails the step"
    (close (cap [ step 100. 1.; step 200. 2. ~backlog:50; step 400. 9. ]) 100.);
  check "a backlog within the limit's worth of arrivals is no saturation"
    (close (cap [ step 1000. 1.; step 2000. 2. ~backlog:9 ]) 2000.);
  check "a lagging generator fails the step" (close (cap [ step 100. 1.; step 200. 2. ~lag:5. ]) 100.);
  check "failed requests fail the step"
    (close (cap [ step 100. 1.; step 200. 2. ~completed_share:0.5 ]) 100.);
  check "nothing passes, capacity 0" (close (cap [ step 100. 6.; step 200. 9. ]) 0.);
  if !failures > 0 then exit 1 else print_endline "perfbench harness self-tests: ok"
