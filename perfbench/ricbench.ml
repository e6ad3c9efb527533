(* The repository benchmark: one command forks ricd, drives one
   workload against it over its Unix socket, checks every reply, and
   prints every metric by name and unit.

     ricbench.exe --workload feed|decide|serve --seed N --seconds S --trace 0|1

   The last line of standard output is the result object; the lines
   before it record the environment and the workload's own figures.
   The exit code is 0 only when every output check passed. *)

let usage = "ricbench --workload feed|decide|serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "feed, decide or serve");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "length of the timed window");
      ("--trace", Arg.Set_int trace, "1 for the traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a stopped run still reaps its daemon: exit runs the at_exit hook *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let run =
    match !workload with
    | "feed" -> Feed.run
    | "decide" -> Decide.run
    | "serve" -> Serve.run
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  match run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | r ->
    Common.print r;
    if not r.Common.correct then exit 1
  | exception e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 1
