(* Spans for the traced run, recorded by Whisper_util.Telemetry.

   The benchmark wraps each call into a layer in [span]; the library's own
   Telemetry spans ("analyze", "machine.run_arena", "arena/<app>", ...)
   nest inside those.  main.ml switches Telemetry on only for traced ops,
   so every span in its snapshot belongs to one of them: an op is a
   depth-0 span named "op", and the spans inside its time range share its
   op id.  This module keeps only what Telemetry lacks: branch events per
   span name, and per-op counts. *)

module Tm = Whisper_util.Telemetry

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Branch events handled under each span name. *)
let events_by_name : (string, int) Hashtbl.t = Hashtbl.create 16

let span ?(events = 0) name f =
  if Tm.enabled () && events > 0 then
    Hashtbl.replace events_by_name name
      (events + Option.value ~default:0 (Hashtbl.find_opt events_by_name name));
  Tm.span name f

(* Per-op counts, keyed by (op label, name).  A later traced op with the
   same label overwrites the value, so a summary does not depend on how
   many traced cycles the host's speed allowed. *)
let labels = ref [] (* traced op labels, in first-seen order *)
let current = ref ""
let counts : (string * string, float) Hashtbl.t = Hashtbl.create 64

let op ~label f =
  if not (Tm.enabled ()) then f ()
  else begin
    current := label;
    if not (List.mem label !labels) then labels := !labels @ [ label ];
    Tm.span "op" f
  end

let count name v =
  if Tm.enabled () then Hashtbl.replace counts (!current, name) v

(* The mean of [name] over the op labels that report it, summed in
   first-seen order (the cycle's order). *)
let count_mean name =
  let find l = Hashtbl.find_opt counts (l, name) in
  match List.filter_map find !labels with
  | [] -> 0.0
  | vs -> List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)

(* ---- summaries over Telemetry's spans ---- *)

type t = { id : int; op : int; parent : int; sp : Tm.span_record }

(* Every recorded span with its op id and parent, in start order.  A
   parent starts no later than its children, so sorting by (start, depth)
   and keeping the open span at each depth finds each span's parent. *)
let recorded () =
  let open_at = Hashtbl.create 8 and op = ref (-1) in
  Tm.spans (Tm.snapshot ())
  |> List.stable_sort (fun (a : Tm.span_record) b ->
         compare (a.sp_start_s, a.sp_depth) (b.sp_start_s, b.sp_depth))
  |> List.mapi (fun id (sp : Tm.span_record) ->
         let parent =
           Option.value ~default:(-1)
             (Hashtbl.find_opt open_at (sp.sp_depth - 1))
         in
         if sp.sp_depth = 0 then op := id;
         Hashtbl.replace open_at sp.sp_depth id;
         { id; op = !op; parent; sp })

let sum_s spans keep =
  List.fold_left
    (fun acc s -> if keep s then acc +. s.sp.sp_dur_s else acc)
    0.0 spans

let n_ops spans = List.length (List.filter (fun s -> s.sp.sp_depth = 0) spans)

let per_op spans x =
  match n_ops spans with 0 -> 0.0 | n -> x /. float_of_int n

let ms_per_op spans name =
  per_op spans (sum_s spans (fun s -> s.sp.sp_name = name) *. 1e3)

let ns_per_event spans name =
  match Hashtbl.find_opt events_by_name name with
  | None | Some 0 -> 0.0
  | Some n ->
      sum_s spans (fun s -> s.sp.sp_name = name) *. 1e9 /. float_of_int n

(* Op wall time not covered by the op's direct child spans, per op. *)
let residual_ms spans =
  per_op spans
    ((sum_s spans (fun s -> s.sp.sp_depth = 0)
     -. sum_s spans (fun s -> s.sp.sp_depth = 1))
    *. 1e3)

(* One JSON line per span, in start order: written once, at exit. *)
let dump oc spans =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"span\":%S,\"id\":%d,\"op\":%d,\"parent\":%d,\"depth\":%d,\
         \"start_ms\":%.3f,\"dur_ms\":%.3f}\n"
        s.sp.sp_name s.id s.op s.parent s.sp.sp_depth (s.sp.sp_start_s *. 1e3)
        (s.sp.sp_dur_s *. 1e3))
    spans
