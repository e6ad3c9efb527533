(* Host-speed calibration.  On a shared host the same work costs more
   CPU time while neighbours load the machine, and the slow phases
   last longer than a run.  So a run interleaves slices of a fixed
   kernel with the daemon's work and reports the daemon's CPU scaled to
   a host on which one slice takes [reference_ms].  The kernel does not
   touch the code under test: it only measures the machine. *)

(* CPU time of one slice on a quiet 2-core x86_64 host. *)
let reference_ms = 7.

(* Share of a run's wall time spent in slices. *)
let share = 0.05

(* A fixed text of 4,000 fact lines, as a scenario holds them. *)
let text =
  lazy
    (String.concat "\n"
       (List.init 4_000 (fun i ->
            Printf.sprintf "T(e%d, k%d, e%d)." (i * 7919 mod 1000) (i mod 16) (i * 104729 mod 1000))))

(* One slice: tokenize the text, intern its tokens, sort the rows and
   print them, which allocates short-lived blocks, hashes strings and
   branches like ricd's own work.  Over runs on a shared 2-core host
   the daemon's CPU per reply followed this kernel's CPU time more
   closely than that of a cache-missing pointer chase or of a
   register-only loop. *)
let kernel () =
  let h = Hashtbl.create 4096 in
  let intern tok =
    match Hashtbl.find_opt h tok with
    | Some i -> i
    | None ->
      let i = Hashtbl.length h in
      Hashtbl.add h tok i;
      i
  in
  let rows =
    Array.of_list
      (List.map
         (fun line -> Array.of_list (List.map intern (String.split_on_char ' ' line)))
         (String.split_on_char '\n' (Lazy.force text)))
  in
  Array.sort compare rows;
  let b = Buffer.create 65536 in
  Array.iter
    (Array.iter (fun i ->
         Buffer.add_string b (string_of_int i);
         Buffer.add_char b ' '))
    rows;
  ignore (Sys.opaque_identity (Buffer.length b))

(* The host's "cpu" line in /proc/stat: ticks stolen by the hypervisor
   and ticks in all. *)
let host_ticks () =
  match In_channel.with_open_text "/proc/stat" input_line with
  | line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let ticks = List.map int_of_string fields in
      (List.nth ticks 7, List.fold_left ( + ) 0 ticks)
    | _ -> (0, 0))
  | exception _ -> (0, 0)

type t = {
  start : float;
  host0 : int * int;
  mutable wall_s : float;  (** wall time spent in slices *)
  mutable cpu_s : float;  (** this process's CPU time in slices *)
  mutable slices : int;
}

(* Build the text first, so that the first slice times the kernel
   only. *)
let create () =
  ignore (Lazy.force text);
  { start = Unix.gettimeofday (); host0 = host_ticks (); wall_s = 0.; cpu_s = 0.; slices = 0 }

let slice t =
  let w0 = Unix.gettimeofday () and c0 = Sys.time () in
  kernel ();
  t.cpu_s <- t.cpu_s +. (Sys.time () -. c0);
  t.wall_s <- t.wall_s +. (Unix.gettimeofday () -. w0);
  t.slices <- t.slices + 1

(* Run slices until they have taken [share] of the wall time since
   [create], so that they sample the host evenly over the run. *)
let pace t =
  while t.wall_s < share *. (Unix.gettimeofday () -. t.start) do
    slice t
  done

(* Mean CPU time of a slice in this run, in ms. *)
let slice_ms t =
  if t.slices = 0 then slice t;
  t.cpu_s *. 1000. /. float_of_int t.slices

(* Share of the host's CPU time the hypervisor stole since [create]. *)
let steal_pct t =
  let s1, n1 = host_ticks () and s0, n0 = t.host0 in
  if n1 = n0 then 0. else 100. *. float_of_int (s1 - s0) /. float_of_int (n1 - n0)

(* Mean wall time of a slice in this run, in ms: its CPU time plus
   what the hypervisor stole while it ran. *)
let slice_wall_ms t =
  if t.slices = 0 then slice t;
  t.wall_s *. 1000. /. float_of_int t.slices

(* A CPU time measured over the run, scaled to the reference host. *)
let scale t ms = ms *. reference_ms /. slice_ms t

(* A wall time measured during the run, scaled to the reference host:
   by the slices' wall time, since stolen time lengthens both. *)
let scale_wall t s = s *. reference_ms /. slice_wall_ms t
