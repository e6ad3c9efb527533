(* One forked ricd ([ric serve]) per run: spawn it from this checkout's
   build, talk to it over its Unix socket, read its counters and its
   memory high-water mark, and make sure it is gone when we exit. *)

module Json = Ric_text.Json
module Protocol = Ric_service.Protocol

let ric_exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "ric.exe"))

(* Everything a run writes lives here, relative to the checkout root
   (the socket path must stay short: sun_path holds ~107 bytes). *)
let run_dir = "_perfbench"

let ensure_run_dir () = if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

let path name = Filename.concat run_dir name

let now = Unix.gettimeofday

type t = {
  pid : int;
  socket : string;
  args : string list;
}

(* pids not yet reaped; the at_exit hook kills and reaps whatever a
   failing run left behind *)
let children : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !children)

(* ------------------------------------------------------------------ *)
(* Framed JSON over the socket *)

type conn = Unix.file_descr

let connect socket : conn =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let disconnect (c : conn) = try Unix.close c with Unix.Unix_error _ -> ()

let decode payload =
  match Json.of_string_result payload with
  | Ok j -> Ok j
  | Error (msg, _, _) -> Error ("malformed reply: " ^ msg)

(* One request, one reply.  Transport failures come back as [Error]:
   the classifier counts them as connection errors. *)
let call (c : conn) (req : Json.t) : (Json.t, string) result =
  match
    Protocol.write_frame c (Json.to_string req);
    Protocol.read_frame ~timeout_raises:true c
  with
  | Some payload -> decode payload
  | None -> Error "connection closed"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Protocol.Frame_error msg -> Error msg

let call_exn c req =
  match call c req with
  | Ok j -> j
  | Error msg -> failwith ("ricd: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
    children := List.filter (( <> ) pid) !children;
    false
  | exception Unix.Unix_error _ -> false

let wait_ready t =
  let deadline = now () +. 30. in
  let rec go () =
    if not (alive t.pid) then failwith "ricd exited during start-up"
    else
      match connect t.socket with
      | c ->
        let r = call c (Json.Obj [ ("op", Json.Str "ping") ]) in
        disconnect c;
        (match r with
         | Ok _ -> ()
         | Error _ when now () < deadline ->
           Unix.sleepf 0.01;
           go ()
         | Error msg -> failwith ("ricd never answered ping: " ^ msg))
      | exception Unix.Unix_error _ when now () < deadline ->
        Unix.sleepf 0.01;
        go ()
  in
  go ()

(* One worker domain: with ricd's main domain that is already as many
   domains as a 2-core host has cores, and more would time the
   scheduler and the runtime's stop-the-world spinning rather than
   ricd. *)
let domains = 1

let queue = 64

(* [extra] adds flags (journal, recover); the default search mode is
   left to the daemon, since that default is what the benchmark
   measures. *)
let spawn ?(extra = []) name =
  ensure_run_dir ();
  let socket = path (name ^ ".sock") in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [ "serve"; "-S"; socket; "-d"; string_of_int domains; "--queue"; string_of_int queue ]
    @ extra
  in
  let log =
    Unix.openfile (path (name ^ ".log")) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () -> Unix.create_process ric_exe (Array.of_list (ric_exe :: args)) null log log)
  in
  children := pid :: !children;
  let t = { pid; socket; args } in
  wait_ready t;
  t

let kill9 t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t.pid

(* Ask for a clean shutdown; SIGKILL if it has not exited in 10 s. *)
let stop t =
  (match connect t.socket with
   | c ->
     ignore (call c (Json.Obj [ ("op", Json.Str "shutdown") ]));
     disconnect c
   | exception Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  while alive t.pid && now () < deadline do
    Unix.sleepf 0.01
  done;
  if List.mem t.pid !children then kill9 t

(* VmHWM of the daemon, in MiB: the peak resident set of a process
   that has served only this run. *)
let vmhwm_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      go ())

(* CPU seconds (user + system) the daemon has used so far, from
   /proc/<pid>/stat in USER_HZ ticks of 1/100 s.  Time the hypervisor
   steals from a shared host is accounted apart and is not in it. *)
let cpu_s t =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" t.pid) in
  let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
  (* fields after "pid (comm) ": state is field 3, utime 14, stime 15 *)
  let after = String.rindex line ')' + 2 in
  match String.split_on_char ' ' (String.sub line after (String.length line - after)) with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
    float_of_int (int_of_string utime + int_of_string stime) /. 100.
  | _ -> failwith "unexpected /proc stat line"

(* ------------------------------------------------------------------ *)
(* The [stats] reply *)

let stats c = call_exn c (Json.Obj [ ("op", Json.Str "stats") ])

let metrics_of stats =
  match Harness.member "metrics" stats with Some (Json.List l) -> l | _ -> []

(* A counter or gauge summed over its label sets. *)
let counter stats name =
  List.fold_left
    (fun acc m ->
      if Harness.str_member "name" m = Some name then
        acc + Option.value ~default:0 (Harness.int_member "value" m)
      else acc)
    0 (metrics_of stats)

(* Cumulative bucket counts of a histogram, summed over label sets:
   (upper bound in seconds, count), +Inf last. *)
let histogram stats name =
  let add acc m =
    if Harness.str_member "name" m <> Some name then acc
    else
      match Harness.member "buckets" m with
      | Some (Json.List bs) ->
        let bs =
          List.map
            (fun b ->
              let le =
                match Harness.str_member "le" b with
                | Some "+Inf" | None -> infinity
                | Some s -> float_of_string s
              in
              (le, Option.value ~default:0 (Harness.int_member "count" b)))
            bs
        in
        (match acc with
         | [] -> bs
         | acc -> List.map2 (fun (le, a) (_, b) -> (le, a + b)) acc bs)
      | _ -> acc
  in
  List.fold_left add [] (metrics_of stats)

(* The p99 of the observations a histogram gained between two stats
   replies, as the upper bound of the bucket holding it (ms); past the
   last finite bucket, that bucket's bound. *)
let histogram_p99_ms ~before ~after name =
  let b = histogram before name and a = histogram after name in
  let delta =
    match b with
    | [] -> a
    | b -> List.map2 (fun (le, x) (_, y) -> (le, x - y)) a b
  in
  match List.rev delta with
  | [] -> 0.
  | (_, total) :: _ when total = 0 -> 0.
  | (_, total) :: _ ->
    let want = float_of_int total *. 0.99 in
    let finite = List.filter (fun (le, _) -> le < infinity) delta in
    (match List.find_opt (fun (_, n) -> float_of_int n >= want) finite with
     | Some (le, _) -> le *. 1000.
     | None -> (match List.rev finite with (le, _) :: _ -> le *. 1000. | [] -> 0.))

let cache_field stats k =
  match Harness.member "cache" stats with
  | Some c -> Option.value ~default:0 (Harness.int_member k c)
  | None -> 0

let session_info stats id =
  match Harness.member "sessions" stats with
  | Some (Json.List l) ->
    List.find_opt (fun s -> Harness.str_member "id" s = Some id) l
  | _ -> None
