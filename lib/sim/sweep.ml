open Whisper_util
open Whisper_trace
module Tm = Telemetry

let m_items = Tm.counter "sweep.items"
let m_completed = Tm.counter "sweep.completed"
let m_resumed = Tm.counter "sweep.resumed"
let m_quarantined = Tm.counter "sweep.quarantined"
let m_crashes = Tm.counter "sweep.worker_crashes"
let m_hangs = Tm.counter "sweep.worker_hangs"
let m_restarts = Tm.counter "sweep.worker_restarts"
let m_spawns = Tm.counter "sweep.worker_spawns"
let m_fallback = Tm.counter "sweep.fallback_inprocess"
let m_recovered = Tm.counter "sweep.journal_recovered"
let m_dropped = Tm.counter "sweep.journal_dropped_bytes"
let m_verify_failed = Tm.counter "sweep.resume_verify_failed"

type app_ref = Catalog of string | Sampled of { seed : int; index : int }

let fleet ~seed ~n = List.init n (fun index -> Sampled { seed; index })

let app_of_ref = function
  | Sampled { seed; index } -> Workloads.sample ~seed ~index
  | Catalog name -> (
      match Workloads.by_name name with
      | Some c -> c
      | None ->
          Whisper_error.raise_error ~context:name Whisper_error.Manifest
            (Whisper_error.Malformed "unknown catalog application"))

let default_techniques = [ "tage-scl"; "8b-rombf"; "whisper" ]

type mode = [ `Process | `In_process ]

type config = {
  apps : app_ref list;
  techniques : string list;
  events : int;
  kb : int;
  state_dir : string;
  jobs : int;
  mode : mode;
  worker_argv : string array;
  faults : float;
  fault_seed : int;
  heartbeat_s : float;
  hang_timeout_s : float;
  max_worker_restarts : int;
  max_attempts : int;
  resume : bool;
  max_completions : int option;
}

let default ~state_dir =
  {
    apps = fleet ~seed:1 ~n:24;
    techniques = default_techniques;
    events = 60_000;
    kb = 64;
    state_dir;
    jobs = 1;
    mode = `Process;
    worker_argv = [| Sys.executable_name; "worker" |];
    faults = 0.0;
    fault_seed = 42;
    heartbeat_s = 0.25;
    hang_timeout_s = 5.0;
    max_worker_restarts = 4;
    max_attempts = 3;
    resume = false;
    max_completions = None;
  }

(* ------------------------------------------------------------------ *)
(* Item specs: the opaque blob a manifest item carries, sufficient    *)
(* for a worker process to re-execute the item from scratch           *)
(* ------------------------------------------------------------------ *)

let spec_version = 1

type spec = {
  app : app_ref;
  tech : string;
  train_inputs : int list;
  test_input : int;
  kb : int;
}

let encode_spec s =
  let w = Binio.Writer.create ~capacity:64 () in
  Binio.Writer.varint w spec_version;
  (match s.app with
  | Catalog n ->
      Binio.Writer.byte w 0;
      Binio.Writer.string w n
  | Sampled { seed; index } ->
      Binio.Writer.byte w 1;
      Binio.Writer.varint w seed;
      Binio.Writer.varint w index);
  Binio.Writer.string w s.tech;
  Binio.Writer.varint w (List.length s.train_inputs);
  List.iter (Binio.Writer.varint w) s.train_inputs;
  Binio.Writer.varint w s.test_input;
  Binio.Writer.varint w s.kb;
  Bytes.to_string (Binio.Writer.contents w)

let decode_spec_exn str =
  let r = Binio.Reader.create (Bytes.of_string str) in
  let voff = Binio.Reader.pos r in
  let v = Binio.Reader.varint r in
  if v <> spec_version then
    Whisper_error.raise_error ~offset:voff Whisper_error.Manifest
      (Whisper_error.Version_mismatch { got = v; expected = spec_version });
  let toff = Binio.Reader.pos r in
  let app =
    match Binio.Reader.byte r with
    | 0 -> Catalog (Binio.Reader.string r)
    | 1 ->
        let seed = Binio.Reader.varint r in
        let index = Binio.Reader.varint r in
        Sampled { seed; index }
    | t ->
        Whisper_error.raise_error ~offset:toff Whisper_error.Manifest
          (Whisper_error.Out_of_range (Printf.sprintf "app tag %d" t))
  in
  let tech = Binio.Reader.string r in
  let n = Binio.Reader.count r in
  let train_inputs = List.init n (fun _ -> Binio.Reader.varint r) in
  let test_input = Binio.Reader.varint r in
  let kb = Binio.Reader.varint r in
  if not (Binio.Reader.eof r) then
    Whisper_error.raise_error ~offset:(Binio.Reader.pos r)
      Whisper_error.Manifest Whisper_error.Trailing_bytes;
  { app; tech; train_inputs; test_input; kb }

let decode_spec str =
  Whisper_error.protect Whisper_error.Manifest (fun () -> decode_spec_exn str)

(* ------------------------------------------------------------------ *)
(* Planning                                                           *)
(* ------------------------------------------------------------------ *)

let technique_exn ~context name =
  match Runner.technique_of_name name with
  | Some t -> t
  | None ->
      Whisper_error.raise_error ~context Whisper_error.Manifest
        (Whisper_error.Malformed (Printf.sprintf "unknown technique %S" name))

let plan cfg =
  let ctx = Runner.create_ctx ~events:cfg.events ~baseline_kb:cfg.kb () in
  let items =
    List.concat_map
      (fun aref ->
        let app = app_of_ref aref in
        List.map
          (fun tech_name ->
            let tech = technique_exn ~context:app.Workloads.name tech_name in
            let s =
              {
                app = aref;
                tech = tech_name;
                train_inputs = [ 0 ];
                test_input = 1;
                kb = cfg.kb;
              }
            in
            let key =
              Runner.run_key ctx app tech ~train_inputs:s.train_inputs
                ~test_input:s.test_input ~kb:s.kb
            in
            { Manifest.key; spec = encode_spec s })
          cfg.techniques)
      cfg.apps
  in
  let meta =
    [
      ("events", string_of_int cfg.events);
      ("kb", string_of_int cfg.kb);
      ("techniques", String.concat "," cfg.techniques);
      ("apps", string_of_int (List.length cfg.apps));
      ("train_inputs", "0");
      ("test_input", "1");
      (* the chaos configuration shapes the quarantine set, so changing
         it must invalidate (re-key) any existing journal *)
      ("faults", Printf.sprintf "%g" cfg.faults);
      ("fault_seed", string_of_int cfg.fault_seed);
    ]
  in
  Manifest.make ~meta (Array.of_list items)

(* ------------------------------------------------------------------ *)
(* Executing one item (shared by worker processes and in-process      *)
(* execution, so failure reasons — and hence journals and reports —   *)
(* are identical between the two modes)                               *)
(* ------------------------------------------------------------------ *)

let result_digest ~key r =
  Digest.to_hex (Digest.bytes (Result_cache.encode ~key r))

(* All attempts share one fault stream; [Fault.wrap] keys on
   ("task/" ^ key), matching the in-process batch driver's convention,
   and the hang sleep is kept far below any sane [hang_timeout_s] so an
   injected task-level hang exercises the retry path, never the
   process-level reaper (that is [Heartbeat_stall]'s job). *)
let make_fault cfg_faults cfg_seed =
  if cfg_faults > 0.0 then
    Some (Fault.create ~seed:cfg_seed ~hang_s:0.05 ~rate:cfg_faults ())
  else None

let run_item ctx ~key ~attempt ~fault spec_str =
  match decode_spec spec_str with
  | Error e -> Error e
  | Ok s ->
      let body () =
        let tech = technique_exn ~context:key s.tech in
        let app = app_of_ref s.app in
        let r =
          Runner.run ~train_inputs:s.train_inputs ~test_input:s.test_input
            ~baseline_kb:s.kb ctx app tech
        in
        result_digest ~key r
      in
      let task =
        match fault with
        | None -> body
        | Some f -> fun () -> Fault.wrap f ~key:("task/" ^ key) ~attempt body
      in
      Whisper_error.protect ~context:key Whisper_error.Task task

let poison_reason = function
  | `Crash -> "poison item: killed its worker on two attempts"
  | `Stall -> "poison item: hung its worker on two attempts"

(* ------------------------------------------------------------------ *)
(* Worker process entry point                                         *)
(* ------------------------------------------------------------------ *)

let worker_main () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let in_fd = Unix.stdin and out_fd = Unix.stdout in
  let rd = Ipc.reader in_fd in
  let die msg =
    prerr_endline ("whisper worker: " ^ msg);
    exit 2
  in
  let init =
    match Ipc.read_frame rd with
    | None -> die "eof before init"
    | Some b -> (
        match Ipc.decode_to_worker b with
        | Ok (Ipc.Init i) -> i
        | Ok _ -> die "expected init frame"
        | Error e -> die (Whisper_error.to_string e))
  in
  let ctx =
    Runner.create_ctx ~events:init.Ipc.events ~baseline_kb:init.Ipc.baseline_kb
      ?cache_dir:
        (if init.Ipc.cache_dir = "" then None else Some init.Ipc.cache_dir)
      ~replay:(if init.Ipc.replay = "closure" then `Closure else `Arena)
      ()
  in
  let fault = make_fault init.Ipc.faults init.Ipc.fault_seed in
  let wlock = Mutex.create () in
  let send m = Mutex.protect wlock (fun () -> Ipc.send_from_worker out_fd m) in
  send (Ipc.Hello { pid = Unix.getpid () });
  (* Heartbeats come from their own domain so a long simulation never
     silences them; [busy] holds the in-flight seq (-1 = idle, and idle
     workers stay silent — the supervisor's deadline only covers workers
     it has handed an item to). *)
  let busy = Atomic.make (-1) in
  let stop = Atomic.make false in
  let hb =
    Domain.spawn (fun () ->
        let period = Float.max 0.01 init.Ipc.heartbeat_s in
        while not (Atomic.get stop) do
          Unix.sleepf period;
          let seq = Atomic.get busy in
          if seq >= 0 && not (Atomic.get stop) then
            try send (Ipc.Heartbeat { seq })
            with Unix.Unix_error _ | Sys_error _ -> Atomic.set stop true
        done)
  in
  let rec loop () =
    match Ipc.read_frame rd with
    | None -> () (* supervisor is gone; nothing left to report to *)
    | Some b -> (
        match Ipc.decode_to_worker b with
        | Error _ | Ok (Ipc.Init _) | Ok Ipc.Shutdown -> ()
        | Ok (Ipc.Item { seq; attempt; key; spec }) -> (
            match
              Option.map
                (fun f -> Fault.worker_decision f ~key:("worker/" ^ key))
                fault
            with
            | Some `Crash ->
                (* injected kill -9: no unwind, no farewell frame *)
                Unix._exit 137
            | Some `Stall ->
                (* wedge silently: no heartbeat, no Finished.  The
                   supervisor's hang detection reaps us; the self-exit
                   below only bounds the damage if it never does. *)
                Unix.sleepf ((init.Ipc.hang_timeout_s *. 4.0) +. 1.0);
                Unix._exit 137
            | Some `None | None ->
                Atomic.set busy seq;
                let outcome =
                  match run_item ctx ~key ~attempt ~fault spec with
                  | Ok digest -> Ipc.Completed { digest }
                  | Error e ->
                      Ipc.Failed { reason = Whisper_error.to_string e }
                in
                Atomic.set busy (-1);
                (try send (Ipc.Finished { seq; key; outcome })
                 with Unix.Unix_error _ | Sys_error _ -> ());
                loop ()))
  in
  loop ();
  Atomic.set stop true;
  (try Domain.join hb with _ -> ());
  exit 0

(* ------------------------------------------------------------------ *)
(* Shared bookkeeping between the two execution engines               *)
(* ------------------------------------------------------------------ *)

type env = {
  cfg : config;
  ctx : Runner.ctx;  (** the aggregation ctx (clean cache reads) *)
  items : Manifest.item array;
  journal : Journal.t;
  quar : (string, string) Hashtbl.t;  (** key -> reason *)
  mutable n_completed : int;  (** journaled [Done] this run *)
  mutable interrupted : bool;
}

let journal_done env i digest =
  Journal.append env.journal
    { Journal.key = env.items.(i).Manifest.key; status = Journal.Done;
      detail = digest };
  env.n_completed <- env.n_completed + 1;
  Tm.incr m_completed;
  (match env.cfg.max_completions with
  | Some k when env.n_completed >= k -> env.interrupted <- true
  | _ -> ())

let note_quarantined env key reason =
  Hashtbl.replace env.quar key reason;
  Runner.note_quarantined env.ctx ~key
    (Whisper_error.make ~context:key Whisper_error.Worker
       (Whisper_error.Malformed reason));
  Tm.incr m_quarantined

let journal_quarantined env i reason =
  let key = env.items.(i).Manifest.key in
  if not (Hashtbl.mem env.quar key) then begin
    Journal.append env.journal
      { Journal.key; status = Journal.Quarantined; detail = reason };
    note_quarantined env key reason
  end

(* ------------------------------------------------------------------ *)
(* In-process execution: a sliding window of at most [jobs] items in   *)
(* flight on the shared domain pool, awaited — and journaled — in     *)
(* manifest order.  Also the graceful-degradation path when worker    *)
(* processes cannot be spawned.                                       *)
(* ------------------------------------------------------------------ *)

type item_outcome = Item_done of string | Item_quarantined of string

let exec_inprocess env ~fault i =
  let key = env.items.(i).Manifest.key in
  match
    Option.map (fun f -> Fault.worker_decision f ~key:("worker/" ^ key)) fault
  with
  | Some ((`Crash | `Stall) as v) ->
      (* process mode would kill a worker per attempt and quarantine at
         two strikes; the deterministic end state is the same, so reach
         it directly with the identical reason *)
      Item_quarantined (poison_reason v)
  | Some `None | None ->
      let rec attempt k =
        match run_item env.ctx ~key ~attempt:k ~fault env.items.(i).Manifest.spec with
        | Ok digest -> Item_done digest
        | Error e ->
            if k >= env.cfg.max_attempts then
              Item_quarantined (Whisper_error.to_string e)
            else attempt (k + 1)
      in
      attempt 1

let run_in_process env ~pending =
  let fault = make_fault env.cfg.faults env.cfg.fault_seed in
  let jobs = max 1 env.cfg.jobs in
  let pool = if jobs > 1 then Some (Pool.shared ~jobs) else None in
  let window = Queue.create () in
  let submit i =
    match pool with
    | None -> Queue.add (i, `Now (lazy (exec_inprocess env ~fault i))) window
    | Some p ->
        Queue.add (i, `Fut (Pool.submit p (fun () -> exec_inprocess env ~fault i)))
          window
  in
  while
    (not env.interrupted)
    && ((not (Queue.is_empty pending)) || not (Queue.is_empty window))
  do
    while (not (Queue.is_empty pending)) && Queue.length window < jobs do
      submit (Queue.pop pending)
    done;
    let i, slot = Queue.pop window in
    let outcome =
      match slot with
      | `Now (lazy o) -> o
      | `Fut f -> (
          match Pool.await f with
          | Ok o -> o
          | Error e ->
              Item_quarantined
                (Whisper_error.to_string
                   (Whisper_error.of_exn
                      ~context:env.items.(i).Manifest.key Whisper_error.Task e)))
    in
    match outcome with
    | Item_done digest -> journal_done env i digest
    | Item_quarantined reason -> journal_quarantined env i reason
  done

(* ------------------------------------------------------------------ *)
(* Process-mode supervision                                           *)
(* ------------------------------------------------------------------ *)

type wproc = {
  pid : int;
  to_fd : Unix.file_descr;
  rd : Ipc.reader;
  mutable hello : bool;
  mutable inflight : int option;  (** manifest index *)
  mutable last_msg : float;
}

type wslot = {
  mutable proc : wproc option;
  mutable deaths : int;  (** spawns consumed = deaths observed *)
  mutable next_spawn : float;
}

type sup_stats = {
  mutable crashes : int;
  mutable hangs : int;
  mutable restarts : int;
}

let spawn_worker cfg ~init_msg =
  let c_in_r, c_in_w = Unix.pipe () in
  let c_out_r, c_out_w = Unix.pipe () in
  (* our ends must not leak into sibling workers, or a dead worker's
     pipe never reads EOF while its siblings hold the write end open *)
  Unix.set_close_on_exec c_in_w;
  Unix.set_close_on_exec c_out_r;
  let argv = cfg.worker_argv in
  let pid =
    try Unix.create_process argv.(0) argv c_in_r c_out_w Unix.stderr
    with e ->
      Unix.close c_in_r;
      Unix.close c_in_w;
      Unix.close c_out_r;
      Unix.close c_out_w;
      raise e
  in
  Unix.close c_in_r;
  Unix.close c_out_w;
  (try Ipc.write_frame c_in_w (Ipc.encode_to_worker (Ipc.Init init_msg))
   with Unix.Unix_error _ | Sys_error _ -> ());
  {
    pid;
    to_fd = c_in_w;
    rd = Ipc.reader c_out_r;
    hello = false;
    inflight = None;
    last_msg = Unix.gettimeofday ();
  }

let supervise env ~pending stats =
  let cfg = env.cfg in
  let items = env.items in
  let n = Array.length items in
  let attempts = Array.make n 0 in
  let strikes = Array.make n 0 in
  let inflight = ref 0 in
  let init_msg =
    {
      Ipc.events = cfg.events;
      baseline_kb = cfg.kb;
      cache_dir = Option.value (Runner.cache_dir env.ctx) ~default:"";
      replay = "arena";
      faults = cfg.faults;
      fault_seed = cfg.fault_seed;
      heartbeat_s = cfg.heartbeat_s;
      hang_timeout_s = cfg.hang_timeout_s;
    }
  in
  let slots =
    Array.init (max 1 cfg.jobs) (fun _ ->
        { proc = None; deaths = 0; next_spawn = 0.0 })
  in
  let reap slot ~hung =
    match slot.proc with
    | None -> ()
    | Some w ->
        slot.proc <- None;
        if hung then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.close w.to_fd with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        (try Unix.close (Ipc.reader_fd w.rd) with Unix.Unix_error _ -> ());
        if hung then begin
          stats.hangs <- stats.hangs + 1;
          Tm.incr m_hangs
        end
        else begin
          stats.crashes <- stats.crashes + 1;
          Tm.incr m_crashes
        end;
        (match w.inflight with
        | None -> ()
        | Some i ->
            w.inflight <- None;
            decr inflight;
            strikes.(i) <- strikes.(i) + 1;
            if strikes.(i) >= 2 then
              journal_quarantined env i
                (poison_reason (if hung then `Stall else `Crash))
            else Queue.add i pending);
        slot.deaths <- slot.deaths + 1;
        slot.next_spawn <-
          Unix.gettimeofday ()
          +. (0.05 *. Float.pow 2.0 (float_of_int (min 4 slot.deaths)))
  in
  let shutdown slot =
    match slot.proc with
    | None -> ()
    | Some w ->
        slot.proc <- None;
        (try Ipc.write_frame w.to_fd (Ipc.encode_to_worker Ipc.Shutdown)
         with Unix.Unix_error _ | Sys_error _ -> ());
        (try Unix.close w.to_fd with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        (try Unix.close (Ipc.reader_fd w.rd) with Unix.Unix_error _ -> ())
  in
  let handle_frame w b =
    match Ipc.decode_from_worker b with
    | Error _ -> () (* garbage from a dying worker; EOF follows *)
    | Ok m -> (
        w.last_msg <- Unix.gettimeofday ();
        match m with
        | Ipc.Hello _ -> w.hello <- true
        | Ipc.Heartbeat _ -> ()
        | Ipc.Finished { seq; key = _; outcome } -> (
            match w.inflight with
            | Some i when i = seq -> (
                w.inflight <- None;
                decr inflight;
                match outcome with
                | Ipc.Completed { digest } -> journal_done env i digest
                | Ipc.Failed { reason } ->
                    if attempts.(i) >= cfg.max_attempts then
                      journal_quarantined env i reason
                    else Queue.add i pending)
            | _ -> ()))
  in
  let exhausted slot =
    slot.proc = None && slot.deaths > cfg.max_worker_restarts
  in
  let fellback = ref false in
  (try
     while
       (not env.interrupted)
       && not (Queue.is_empty pending && !inflight = 0)
     do
       let now = Unix.gettimeofday () in
       (* respawn slots whose backoff has elapsed *)
       Array.iter
         (fun slot ->
           if
             slot.proc = None
             && slot.deaths <= cfg.max_worker_restarts
             && now >= slot.next_spawn
           then
             match
               try Some (spawn_worker cfg ~init_msg)
               with Unix.Unix_error _ | Sys_error _ | Invalid_argument _ ->
                 None
             with
             | Some w ->
                 slot.proc <- Some w;
                 Tm.incr m_spawns;
                 if slot.deaths > 0 then begin
                   stats.restarts <- stats.restarts + 1;
                   Tm.incr m_restarts
                 end
             | None ->
                 (* fork itself failed: this slot is done for good *)
                 slot.deaths <- cfg.max_worker_restarts + 1)
         slots;
       if Array.for_all exhausted slots then raise Exit;
       (* hand items to idle workers *)
       Array.iter
         (fun slot ->
           match slot.proc with
           | Some w
             when w.hello && w.inflight = None
                  && not (Queue.is_empty pending) -> (
               let i = Queue.pop pending in
               attempts.(i) <- attempts.(i) + 1;
               w.inflight <- Some i;
               incr inflight;
               w.last_msg <- Unix.gettimeofday ();
               try
                 Ipc.write_frame w.to_fd
                   (Ipc.encode_to_worker
                      (Ipc.Item
                         {
                           seq = i;
                           attempt = attempts.(i);
                           key = items.(i).Manifest.key;
                           spec = items.(i).Manifest.spec;
                         }))
               with Unix.Unix_error _ | Sys_error _ ->
                 (* the worker died under us; EOF handling will reap it.
                    The dispatch never reached it, so no strike. *)
                 attempts.(i) <- attempts.(i) - 1;
                 w.inflight <- None;
                 decr inflight;
                 Queue.add i pending)
           | _ -> ())
         slots;
       (* wait for traffic *)
       let fds =
         Array.to_list slots
         |> List.filter_map (fun s ->
                Option.map (fun w -> Ipc.reader_fd w.rd) s.proc)
       in
       if fds = [] then Unix.sleepf 0.02
       else begin
         let readable =
           try
             let r, _, _ = Unix.select fds [] [] 0.05 in
             r
           with Unix.Unix_error (Unix.EINTR, _, _) -> []
         in
         Array.iter
           (fun slot ->
             match slot.proc with
             | Some w when List.mem (Ipc.reader_fd w.rd) readable -> (
                 match
                   try Ipc.feed w.rd with Unix.Unix_error _ -> `Eof
                 with
                 | `Eof -> reap slot ~hung:false
                 | `Data ->
                     let rec drain () =
                       match
                         try Ipc.next_frame w.rd
                         with Whisper_error.Error _ ->
                           (* oversized/corrupt length prefix: the
                              stream is unrecoverable *)
                           reap slot ~hung:false;
                           None
                       with
                       | Some b ->
                           handle_frame w b;
                           if slot.proc <> None then drain ()
                       | None -> ()
                     in
                     drain ())
             | _ -> ())
           slots
       end;
       (* hang detection: a worker with an item in flight owes us a
          heartbeat every [heartbeat_s]; prolonged silence means it is
          wedged, and only SIGKILL gets the slot back *)
       let now = Unix.gettimeofday () in
       Array.iter
         (fun slot ->
           match slot.proc with
           | Some w
             when w.inflight <> None
                  && now -. w.last_msg > cfg.hang_timeout_s ->
               reap slot ~hung:true
           | _ -> ())
         slots
     done
   with Exit ->
     fellback := true;
     Tm.incr m_fallback);
  Array.iter shutdown slots;
  if !fellback && not (Queue.is_empty pending) then
    run_in_process env ~pending;
  !fellback

(* ------------------------------------------------------------------ *)
(* Resume, aggregation, and the top-level driver                      *)
(* ------------------------------------------------------------------ *)

let mpki (r : Whisper_pipeline.Machine.result) =
  if r.Whisper_pipeline.Machine.instrs = 0 then Float.nan
  else
    1000.0
    *. float_of_int r.Whisper_pipeline.Machine.mispredicts
    /. float_of_int r.Whisper_pipeline.Machine.instrs

(* The report is rebuilt from scratch on every (re)run by pure lookups
   in manifest order: completed items come out of the shared result
   cache (or are recomputed to the identical values — Runner.run is a
   pure function of the key), quarantined ones render DEGRADED.  No
   crash/resume accounting enters the report, which is what makes it
   byte-identical across kills, resumes, modes and job counts. *)
let aggregate env =
  let cfg = env.cfg in
  let techniques =
    List.map (fun name -> (name, technique_exn ~context:"sweep" name))
      cfg.techniques
  in
  let rows =
    List.map
      (fun aref ->
        let app = app_of_ref aref in
        let vals =
          List.map
            (fun (_, tech) ->
              mpki
                (Runner.run ~train_inputs:[ 0 ] ~test_input:1
                   ~baseline_kb:cfg.kb env.ctx app tech))
            techniques
        in
        (app.Workloads.name, vals))
      cfg.apps
  in
  let notes =
    Hashtbl.fold (fun k reason acc -> (k, reason) :: acc) env.quar []
    |> List.sort compare
    |> List.map (fun (k, reason) -> Printf.sprintf "quarantined %s: %s" k reason)
  in
  Report.make ~id:"sweep"
    ~title:
      (Printf.sprintf "Fleet sweep: %d apps x %d techniques, branch MPKI"
         (List.length cfg.apps) (List.length techniques))
    ~header:("app" :: List.map fst techniques)
    ~notes rows
  |> Report.with_mean

type outcome = {
  report : Report.t option;
  manifest_id : string;
  total : int;
  completed : int;
  resumed : int;
  quarantined : int;
  worker_crashes : int;
  worker_hangs : int;
  worker_restarts : int;
  fellback : bool;
  journal_recovered : bool;
  journal_dropped_bytes : int;
  interrupted : bool;
}

(* A dead worker's pipe must surface as EPIPE/EOF, not a fatal signal. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
    with Invalid_argument _ | Sys_error _ -> ()

let run cfg =
  ignore_sigpipe ();
  let cache_dir = Filename.concat cfg.state_dir "cache" in
  let ctx =
    Runner.create_ctx ~events:cfg.events ~baseline_kb:cfg.kb ~cache_dir ()
  in
  let manifest = plan cfg in
  let mid = Manifest.id manifest in
  let total = Array.length manifest.Manifest.items in
  Tm.add m_items total;
  let { Journal.journal; last = prior; recovered; dropped } =
    Journal.open_or_resume ~dir:cfg.state_dir ~resume:cfg.resume manifest
  in
  if recovered then Tm.incr m_recovered;
  if dropped > 0 then Tm.add m_dropped dropped;
  let env =
    {
      cfg;
      ctx;
      items = manifest.Manifest.items;
      journal;
      quar = Hashtbl.create 16;
      n_completed = 0;
      interrupted = false;
    }
  in
  (* Replay the journal.  Done entries are only trusted if the result
     cache still holds the exact result they recorded — anything else
     re-runs. *)
  let verify_cache = Result_cache.create ~dir:cache_dir () in
  let resumed = ref 0 in
  let pending = Queue.create () in
  Array.iteri
    (fun i it ->
      match Hashtbl.find_opt prior it.Manifest.key with
      | Some { Journal.status = Journal.Done; detail = digest; _ } -> (
          match Result_cache.find verify_cache ~key:it.Manifest.key with
          | Some r when result_digest ~key:it.Manifest.key r = digest ->
              incr resumed;
              Tm.incr m_resumed
          | Some _ | None ->
              Tm.incr m_verify_failed;
              Queue.add i pending)
      | Some { Journal.status = Journal.Quarantined; detail = reason; _ } ->
          note_quarantined env it.Manifest.key reason
      | None -> Queue.add i pending)
    manifest.Manifest.items;
  let stats = { crashes = 0; hangs = 0; restarts = 0 } in
  let fellback =
    match cfg.mode with
    | `In_process ->
        run_in_process env ~pending;
        false
    | `Process -> supervise env ~pending stats
  in
  let report = if env.interrupted then None else Some (aggregate env) in
  Journal.close journal;
  {
    report;
    manifest_id = mid;
    total;
    completed = env.n_completed;
    resumed = !resumed;
    quarantined = Hashtbl.length env.quar;
    worker_crashes = stats.crashes;
    worker_hangs = stats.hangs;
    worker_restarts = stats.restarts;
    fellback;
    journal_recovered = recovered;
    journal_dropped_bytes = dropped;
    interrupted = env.interrupted;
  }
