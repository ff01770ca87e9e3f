let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Pure histogram cells                                                *)
(* ------------------------------------------------------------------ *)

module Hist = struct
  type t = {
    count : int;
    sum : int;
    min_v : int;
    max_v : int;
    buckets : int array;
  }

  let n_buckets = 64

  let bucket_of_value v =
    if v <= 0 then 0
    else begin
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      let b = bits 0 v in
      if b < n_buckets then b else n_buckets - 1
    end

  let bucket_bounds b =
    if b < 0 || b >= n_buckets then invalid_arg "Telemetry.Hist.bucket_bounds";
    if b = 0 then (min_int, 0)
    else if b = n_buckets - 1 then (1 lsl (n_buckets - 2), max_int)
    else (1 lsl (b - 1), (1 lsl b) - 1)

  let empty =
    {
      count = 0;
      sum = 0;
      min_v = max_int;
      max_v = min_int;
      buckets = Array.make n_buckets 0;
    }

  let observe t v =
    let buckets = Array.copy t.buckets in
    let b = bucket_of_value v in
    buckets.(b) <- buckets.(b) + 1;
    {
      count = t.count + 1;
      sum = t.sum + v;
      min_v = min t.min_v v;
      max_v = max t.max_v v;
      buckets;
    }

  let merge a b =
    {
      count = a.count + b.count;
      sum = a.sum + b.sum;
      min_v = min a.min_v b.min_v;
      max_v = max a.max_v b.max_v;
      buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    }

  let equal a b =
    a.count = b.count && a.sum = b.sum && a.min_v = b.min_v
    && a.max_v = b.max_v && a.buckets = b.buckets
end

(* ------------------------------------------------------------------ *)
(* Global name interning                                               *)
(* ------------------------------------------------------------------ *)

type counter = int
type histogram = int

let glock = Mutex.create ()

type names = { mutable arr : string array; index : (string, int) Hashtbl.t }

let fresh_names () = { arr = [||]; index = Hashtbl.create 64 }
let counter_names = fresh_names ()
let hist_names = fresh_names ()

let intern names name =
  Mutex.protect glock (fun () ->
      match Hashtbl.find_opt names.index name with
      | Some slot -> slot
      | None ->
          let slot = Array.length names.arr in
          names.arr <- Array.append names.arr [| name |];
          Hashtbl.add names.index name slot;
          slot)

let counter name : counter = intern counter_names name
let histogram name : histogram = intern hist_names name

(* ------------------------------------------------------------------ *)
(* Domain-local registries                                             *)
(* ------------------------------------------------------------------ *)

type span_record = {
  sp_name : string;
  sp_domain : int;
  sp_depth : int;
  sp_start_s : float;
  sp_dur_s : float;
}

(* Mutable per-domain state; only its owning domain writes it, so the
   recording path is lock-free.  [snapshot] reads other domains'
   registries — callers aggregate at quiescent points (after a pool
   joined, at end of run), which is the only merge order that is
   meaningful anyway. *)
type local = {
  dom : int;
  mutable ctrs : int array;
  mutable hists : Hist.t array;  (* Hist.empty when untouched *)
  mutable spn : span_record list;
  mutable n_spans : int;
  mutable depth : int;
}

let locals : local list ref = ref []
let epoch = ref (Unix.gettimeofday ())
let on = Atomic.make true

let dls : local Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let l =
        {
          dom = (Domain.self () :> int);
          ctrs = [||];
          hists = [||];
          spn = [];
          n_spans = 0;
          depth = 0;
        }
      in
      Mutex.protect glock (fun () -> locals := l :: !locals);
      l)

let local () = Domain.DLS.get dls
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

let ensure_ctrs l slot =
  if Array.length l.ctrs <= slot then begin
    let n = max (slot + 1) (max 16 (2 * Array.length l.ctrs)) in
    let a = Array.make n 0 in
    Array.blit l.ctrs 0 a 0 (Array.length l.ctrs);
    l.ctrs <- a
  end

let add slot n =
  if Atomic.get on then begin
    let l = local () in
    ensure_ctrs l slot;
    Array.unsafe_set l.ctrs slot (Array.unsafe_get l.ctrs slot + n)
  end

let incr slot = add slot 1

let observe slot v =
  if Atomic.get on then begin
    let l = local () in
    if Array.length l.hists <= slot then begin
      let n = max (slot + 1) (max 8 (2 * Array.length l.hists)) in
      let a = Array.make n Hist.empty in
      Array.blit l.hists 0 a 0 (Array.length l.hists);
      l.hists <- a
    end;
    l.hists.(slot) <- Hist.observe l.hists.(slot) v
  end

let span name f =
  if not (Atomic.get on) then f ()
  else begin
    let l = local () in
    let depth = l.depth in
    l.depth <- depth + 1;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Unix.gettimeofday () -. t0 in
        l.depth <- depth;
        l.spn <-
          {
            sp_name = name;
            sp_domain = l.dom;
            sp_depth = depth;
            sp_start_s = t0 -. !epoch;
            sp_dur_s = dur;
          }
          :: l.spn;
        l.n_spans <- l.n_spans + 1)
      f
  end

let reset () =
  Mutex.protect glock (fun () ->
      epoch := Unix.gettimeofday ();
      List.iter
        (fun l ->
          Array.fill l.ctrs 0 (Array.length l.ctrs) 0;
          Array.iteri (fun i _ -> l.hists.(i) <- Hist.empty) l.hists;
          l.spn <- [];
          l.n_spans <- 0)
        !locals)

(* ------------------------------------------------------------------ *)
(* Snapshot (the deterministic merge)                                  *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  sn_counters : (string * int) list;  (* sorted by name *)
  sn_hists : (string * Hist.t) list;  (* sorted by name, touched only *)
  sn_spans : span_record list;
}

let snapshot () =
  Mutex.protect glock (fun () ->
      let nc = Array.length counter_names.arr in
      let nh = Array.length hist_names.arr in
      let ctr_totals = Array.make nc 0 in
      let hist_totals = Array.make nh Hist.empty in
      let spans = ref [] in
      List.iter
        (fun l ->
          Array.iteri
            (fun slot v -> if slot < nc then ctr_totals.(slot) <- ctr_totals.(slot) + v)
            l.ctrs;
          Array.iteri
            (fun slot h ->
              if slot < nh && h.Hist.count > 0 then
                hist_totals.(slot) <- Hist.merge hist_totals.(slot) h)
            l.hists;
          spans := List.rev_append l.spn !spans)
        !locals;
      let by_name name_of totals keep =
        Array.to_list totals
        |> List.mapi (fun slot v -> (name_of slot, v))
        |> List.filter (fun (_, v) -> keep v)
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      {
        sn_counters =
          by_name (Array.get counter_names.arr) ctr_totals (fun _ -> true);
        sn_hists =
          by_name (Array.get hist_names.arr) hist_totals (fun h ->
              h.Hist.count > 0);
        sn_spans =
          List.sort
            (fun a b ->
              match Float.compare a.sp_start_s b.sp_start_s with
              | 0 -> (
                  match compare a.sp_domain b.sp_domain with
                  | 0 -> String.compare a.sp_name b.sp_name
                  | n -> n)
              | n -> n)
            !spans;
      })

let counters s = s.sn_counters
let histograms s = s.sn_hists
let spans s = s.sn_spans

let counter_value s name =
  Option.value ~default:0 (List.assoc_opt name s.sn_counters)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let hist_json (h : Hist.t) =
  let buckets =
    Array.to_list h.buckets
    |> List.mapi (fun b c -> (b, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (b, c) ->
           let lo, hi = Hist.bucket_bounds b in
           Sjson.Obj
             [
               ("lo", Sjson.of_int (max lo 0));
               ("hi", Sjson.of_int hi);
               ("count", Sjson.of_int c);
             ])
  in
  Sjson.Obj
    [
      ("count", Sjson.of_int h.count);
      ("sum", Sjson.of_int h.sum);
      ("min", Sjson.of_int (if h.count = 0 then 0 else h.min_v));
      ("max", Sjson.of_int (if h.count = 0 then 0 else h.max_v));
      ("buckets", Sjson.Arr buckets);
    ]

(* Per-name span aggregates; the raw events only go to the Chrome
   export, so metrics.json stays small. *)
let span_aggregates s =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let c, t =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl sp.sp_name)
      in
      Hashtbl.replace tbl sp.sp_name (c + 1, t +. sp.sp_dur_s))
    s.sn_spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json s =
  let agg = span_aggregates s in
  let total_s = List.fold_left (fun acc (_, (_, t)) -> acc +. t) 0.0 agg in
  Sjson.Obj
    [
      ("schema", Sjson.Str "whisper-metrics");
      ("version", Sjson.of_int schema_version);
      ( "counters",
        Sjson.Obj (List.map (fun (k, v) -> (k, Sjson.of_int v)) s.sn_counters)
      );
      ( "histograms",
        Sjson.Obj (List.map (fun (k, h) -> (k, hist_json h)) s.sn_hists) );
      ( "spans",
        Sjson.Obj
          [
            ("count", Sjson.of_int (List.length s.sn_spans));
            ("total_s", Sjson.Num total_s);
            ( "by_name",
              Sjson.Obj
                (List.map
                   (fun (name, (c, t)) ->
                     ( name,
                       Sjson.Obj
                         [
                           ("count", Sjson.of_int c);
                           ("total_s", Sjson.Num t);
                         ] ))
                   agg) );
          ] );
    ]

let to_json_string s = Sjson.to_string_pretty (to_json s)
let strip_wall_time j = Sjson.remove "spans" j

let to_text s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== telemetry ==\n";
  Buffer.add_string buf "counters:\n";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-42s %12d\n" k v))
    s.sn_counters;
  if s.sn_hists <> [] then Buffer.add_string buf "histograms:\n";
  List.iter
    (fun (k, (h : Hist.t)) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-42s count=%d sum=%d min=%d max=%d\n" k h.count
           h.sum h.min_v h.max_v))
    s.sn_hists;
  let agg = span_aggregates s in
  if agg <> [] then
    Buffer.add_string buf
      (Printf.sprintf "spans (%d):\n" (List.length s.sn_spans));
  List.iter
    (fun (name, (c, t)) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-42s count=%-6d total=%.3fs\n" name c t))
    agg;
  Buffer.contents buf

let summary_lines s =
  List.filter_map
    (fun (k, v) -> if v = 0 then None else Some (Printf.sprintf "%s = %d" k v))
    s.sn_counters

let to_chrome s =
  let events =
    List.map
      (fun sp ->
        Sjson.Obj
          [
            ("name", Sjson.Str sp.sp_name);
            ("cat", Sjson.Str "whisper");
            ("ph", Sjson.Str "X");
            ("pid", Sjson.of_int (Unix.getpid ()));
            ("tid", Sjson.of_int sp.sp_domain);
            ("ts", Sjson.Num (1e6 *. sp.sp_start_s));
            ("dur", Sjson.Num (1e6 *. sp.sp_dur_s));
            ("args", Sjson.Obj [ ("depth", Sjson.of_int sp.sp_depth) ]);
          ])
      s.sn_spans
  in
  Sjson.to_string_pretty
    (Sjson.Obj
       [
         ("traceEvents", Sjson.Arr events);
         ("displayTimeUnit", Sjson.Str "ms");
       ])

let write_file ~path content =
  Durable.write_atomic path (Bytes.unsafe_of_string content)
