(* Host speed, read from a fixed reference kernel timed next to the work.

   The host the benchmark was sized on switches between phases of
   different speed, up to about 1.6x apart, for stretches of seconds to
   minutes.  Process CPU time slows down with wall time in them, so it
   does not help, and a run can sit in one phase from start to end.  The
   kernel, a sum over a 4 MiB int array, is the same code in every version
   of the library, so its time moves with the host alone.  Of the kernels
   tried it tracked the ops best (see README.md, "Host speed").  [timed]
   returns the factor that turns a measured time into the time at the
   speed where one pass of the kernel takes [nominal_ms]. *)

(* One pass, in milliseconds, at the nominal speed: about the slow phase
   of a 2-core Xeon host at 2.0 GHz. *)
let nominal_ms = 1.8

let table = Array.init (1 lsl 19) (fun i -> (i * 0x9E3779B1) land 0xFFFFFF)

(* The kernel's time now: the fastest of three passes, so a cold cache or
   one preemption does not read as a slow phase. *)
let kernel_ms () =
  List.fold_left
    (fun best _ ->
      let t0 = Span.now_s () in
      ignore (Sys.opaque_identity (Array.fold_left ( + ) 0 table));
      Float.min best ((Span.now_s () -. t0) *. 1e3))
    infinity [ 1; 2; 3 ]

(* Runs [f] between two readings of the kernel.  Returns its result, its
   measured milliseconds and the factor that scales them to nominal
   speed. *)
let timed f =
  let before = kernel_ms () in
  let t0 = Span.now_s () in
  let r = f () in
  let ms = (Span.now_s () -. t0) *. 1e3 in
  let after = kernel_ms () in
  (r, ms, 2.0 *. nominal_ms /. (before +. after))
