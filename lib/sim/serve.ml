open Whisper_util
open Whisper_trace
open Whisper_core
module Tm = Telemetry

(* Counters follow the sweep.* convention: accounting for crash/resume
   and degradation goes to telemetry and the outcome record, never into
   the ledger (which must stay byte-identical across kills, resumes and
   job counts). *)
let m_steps = Tm.counter "serve.generations"
let m_ingested = Tm.counter "serve.chunks_ingested"
let m_duplicates = Tm.counter "serve.duplicate_chunks"
let m_quarantined = Tm.counter "serve.chunks_quarantined"
let m_rescores = Tm.counter "serve.rescores"
let m_drift = Tm.counter "serve.drift_detected"
let m_analyses = Tm.counter "serve.analyses"
let m_aquar = Tm.counter "serve.analysis_quarantined"
let m_rollouts = Tm.counter "serve.rollouts"
let m_rollbacks = Tm.counter "serve.rollbacks"
let m_resumed = Tm.counter "serve.resumed"
let m_recovered = Tm.counter "serve.journal_recovered"
let m_dropped = Tm.counter "serve.journal_dropped_bytes"

type config = {
  apps : string list;
  generations : int;
  chunk_events : int;
  window : int;
  kb : int;
  max_samples : int;
  drift_flip : int option;
  decay_frac : float;
  state_dir : string;
  jobs : int;
  faults : float;
  fault_seed : int;
  redeliver : bool;
  resume : bool;
  max_steps : int option;
}

let default ~state_dir =
  {
    apps = [ "finagle-http" ];
    generations = 12;
    chunk_events = 120_000;
    window = 4;
    kb = 64;
    max_samples = 512;
    drift_flip = Some 6;
    decay_frac = 0.5;
    state_dir;
    jobs = 1;
    faults = 0.0;
    fault_seed = 42;
    redeliver = true;
    resume = false;
    max_steps = None;
  }

(* ------------------------------------------------------------------ *)
(* Scenario manifest                                                  *)
(* ------------------------------------------------------------------ *)

let step_key ~gen ~app = Printf.sprintf "g%04d/%s" gen app

let plan cfg =
  let meta =
    [
      ("kind", "serve");
      ("apps", String.concat "," cfg.apps);
      ("generations", string_of_int cfg.generations);
      ("chunk_events", string_of_int cfg.chunk_events);
      ("window", string_of_int cfg.window);
      ("kb", string_of_int cfg.kb);
      ("max_samples", string_of_int cfg.max_samples);
      ( "drift_flip",
        match cfg.drift_flip with None -> "none" | Some g -> string_of_int g );
      ("decay_frac", Printf.sprintf "%.6f" cfg.decay_frac);
      ("faults", Printf.sprintf "%.6f" cfg.faults);
      ("fault_seed", string_of_int cfg.fault_seed);
      ("redeliver", if cfg.redeliver then "1" else "0");
    ]
  in
  let items =
    Array.init
      (cfg.generations * List.length cfg.apps)
      (fun i ->
        let gen = i / List.length cfg.apps in
        let app = List.nth cfg.apps (i mod List.length cfg.apps) in
        let key = step_key ~gen ~app in
        { Manifest.key; spec = key })
  in
  Manifest.make ~meta items

(* ------------------------------------------------------------------ *)
(* Ledger lines                                                       *)
(* ------------------------------------------------------------------ *)

type action = A_none | A_rollout | A_rollback | A_quarantined

type step = {
  gen : int;
  app : string;
  chunk_id : string;
  status : string;  (* "ok" or "quarantined:<tag>" *)
  redup : int;
  cov : float option;  (* incumbent coverage on the window, pre-action *)
  drift : bool;
  action : action;
  deployed : int option;  (* deployed plan generation after the action *)
  plan_digest : string option;
  hints : int;
  postcov : float option;  (* deployed coverage after the action *)
}

let action_name = function
  | A_none -> "none"
  | A_rollout -> "rollout"
  | A_rollback -> "rollback"
  | A_quarantined -> "analysis-quarantined"

let action_of_name = function
  | "none" -> Some A_none
  | "rollout" -> Some A_rollout
  | "rollback" -> Some A_rollback
  | "analysis-quarantined" -> Some A_quarantined
  | _ -> None

let opt_cov = function None -> "none" | Some c -> Printf.sprintf "%.6f" c
let opt_gen = function None -> "none" | Some g -> Printf.sprintf "%04d" g

let render_step (s : step) =
  Printf.sprintf
    "gen=%04d app=%s chunk=%s status=%s redup=%d cov=%s drift=%d action=%s \
     deployed=%s plan=%s hints=%d postcov=%s"
    s.gen s.app s.chunk_id s.status s.redup (opt_cov s.cov)
    (if s.drift then 1 else 0)
    (action_name s.action) (opt_gen s.deployed)
    (Option.value ~default:"none" s.plan_digest)
    s.hints (opt_cov s.postcov)

let parse_step line =
  let field name =
    let prefix = name ^ "=" in
    List.find_map
      (fun tok ->
        if
          String.length tok > String.length prefix
          && String.sub tok 0 (String.length prefix) = prefix
        then
          Some (String.sub tok (String.length prefix)
                  (String.length tok - String.length prefix))
        else None)
      (String.split_on_char ' ' line)
  in
  let ( let* ) = Option.bind in
  let* gen = Option.bind (field "gen") int_of_string_opt in
  let* app = field "app" in
  let* chunk_id = field "chunk" in
  let* status = field "status" in
  let* redup = Option.bind (field "redup") int_of_string_opt in
  let* cov_s = field "cov" in
  let* cov =
    if cov_s = "none" then Some None
    else Option.map Option.some (float_of_string_opt cov_s)
  in
  let* drift = Option.bind (field "drift") int_of_string_opt in
  let* action = Option.bind (field "action") action_of_name in
  let* dep_s = field "deployed" in
  let* deployed =
    if dep_s = "none" then Some None
    else Option.map Option.some (int_of_string_opt dep_s)
  in
  let* plan_s = field "plan" in
  let plan_digest = if plan_s = "none" then None else Some plan_s in
  let* hints = Option.bind (field "hints") int_of_string_opt in
  let* postcov_s = field "postcov" in
  let* postcov =
    if postcov_s = "none" then Some None
    else Option.map Option.some (float_of_string_opt postcov_s)
  in
  Some
    {
      gen;
      app;
      chunk_id;
      status;
      redup;
      cov;
      drift = drift <> 0;
      action;
      deployed;
      plan_digest;
      hints;
      postcov;
    }

(* ------------------------------------------------------------------ *)
(* State-dir artifacts                                                *)
(* ------------------------------------------------------------------ *)

let chunk_path cfg ~app ~id =
  Filename.concat (Filename.concat cfg.state_dir "chunks")
    (Filename.concat app (id ^ ".bin"))

let plan_path cfg ~app ~gen =
  Filename.concat (Filename.concat cfg.state_dir "plans")
    (Filename.concat app (Printf.sprintf "g%04d.bin" gen))

(* ------------------------------------------------------------------ *)
(* Per-app service state                                              *)
(* ------------------------------------------------------------------ *)

type deployed = {
  d_gen : int;
  d_plan : Rescore.plan;
  d_digest : string;
  d_hints : int;
}

type app_state = {
  name : string;
  wcfg : Workloads.config;
  cfg_static : Cfg.t;
  ids : (string, unit) Hashtbl.t;  (* every accepted chunk id *)
  profiles : (string, Profile.t) Hashtbl.t;  (* window chunk id -> profile *)
  mutable win : (int * string) list;  (* newest first *)
  mutable dep : deployed option;
  mutable ref_cov : float;  (* deployed coverage at rollout time *)
  mutable applying : bool;  (* journal prefix still consistent *)
}

type env = {
  cfg : config;
  analysis_config : Config.t;
  rnd : Randomized.t;
  fault : Fault.t option;
  journal : Journal.t;
  states : (string, app_state) Hashtbl.t;
  steps : (string, step) Hashtbl.t;  (* step key -> final record *)
  mutable n_completed : int;
  mutable n_resumed : int;
  mutable interrupted : bool;
}

let phase_of cfg ~gen =
  match cfg.drift_flip with Some f when gen >= f -> 1 | _ -> 0

(* One collection window's chunk, regenerated deterministically from
   (config, app, gen) — including the delivery-time corruption, which is
   pure in (fault_seed, step key).  This is what makes lost chunk files
   recoverable on resume.  The chunk's events are packed into a
   transient arena and profiled by the same collector as
   [Runner.profile]. *)
let collect_chunk env st ~gen =
  let model =
    App_model.create ~phase:(phase_of env.cfg ~gen) ~cfg:st.cfg_static
      ~config:st.wcfg ~input:(gen + 2) ()
  in
  let profile =
    Runner.profile_arena ~max_samples:env.cfg.max_samples ~kb:env.cfg.kb
      (Arena.build ~events:env.cfg.chunk_events model)
  in
  let clean = Profile_chunk.encode ~app:st.name ~seq:gen profile in
  match env.fault with
  | None -> clean
  | Some f -> Fault.corrupt f ~key:(step_key ~gen ~app:st.name) clean

(* The acceptance step every delivered chunk passes: it must decode, and
   its length series must be the service's.  A bit flip in the series
   varint can leave a chunk that decodes but cannot be merged into a
   window; it quarantines like any other malformed chunk. *)
let accept_chunk bytes =
  match Profile_chunk.decode bytes with
  | Error _ as e -> e
  | Ok c when Profile.lengths c.Profile_chunk.profile <> Workloads.lengths ->
      Error
        (Whisper_error.make ~context:"profile-chunk" Profile_io
           (Whisper_error.Malformed
              "chunk length series differs from the service's"))
  | Ok c -> Ok c.Profile_chunk.profile

(* The profile of an accepted chunk, from the in-memory window cache, the
   chunk store, or deterministic regeneration. *)
let chunk_profile env st ~gen ~id =
  match Hashtbl.find_opt st.profiles id with
  | Some p -> Some p
  | None ->
      let from_bytes b =
        if Profile_chunk.id b <> id then None
        else
          match accept_chunk b with
          | Ok p ->
              Hashtbl.replace st.profiles id p;
              Some p
          | Error _ -> None
      in
      let stored =
        Option.bind
          (Durable.read (chunk_path env.cfg ~app:st.name ~id))
          from_bytes
      in
      (match stored with
      | Some _ as r -> r
      | None -> from_bytes (collect_chunk env st ~gen))

let window_profile env st =
  let ps =
    List.filter_map
      (fun (gen, id) -> chunk_profile env st ~gen ~id)
      (List.rev st.win)
  in
  if ps = [] then None
  else
    Some
      (Profile_chunk.merge_profiles ~max_samples:env.cfg.max_samples
         ~lengths:Workloads.lengths ps)

(* Slide the window; a chunk that leaves it drops its cached profile
   ([chunk_profile] reloads it from the store should resume need it). *)
let push_window env st ~gen ~id =
  st.win <- List.filteri (fun i _ -> i < env.cfg.window) ((gen, id) :: st.win);
  let in_window cid = List.exists (fun (_, w) -> w = cid) st.win in
  Hashtbl.filter_map_inplace
    (fun cid p -> if in_window cid then Some p else None)
    st.profiles

let quarantine_tag (e : Whisper_error.t) =
  match e.Whisper_error.kind with
  | Whisper_error.Truncated -> "truncated"
  | Whisper_error.Bad_magic _ -> "bad-magic"
  | Whisper_error.Version_mismatch _ -> "version-skew"
  | Whisper_error.Varint_overflow -> "varint-overflow"
  | Whisper_error.Out_of_range _ -> "out-of-range"
  | Whisper_error.Key_mismatch -> "key-mismatch"
  | Whisper_error.Trailing_bytes -> "trailing-bytes"
  | Whisper_error.Count_overflow _ -> "count-overflow"
  | Whisper_error.Malformed _ -> "malformed"
  | Whisper_error.Timeout _ -> "timeout"

(* ------------------------------------------------------------------ *)
(* Step execution                                                     *)
(* ------------------------------------------------------------------ *)

(* The rollout rule: a candidate replaces the incumbent only when it
   scores at least as well on the same window; the first plan always
   rolls out.  In the scripted scenarios the candidate is trained on
   the very window it is scored against, so rollback is the rare path
   — it exists for the production story (analysis on stale data) and
   is pinned by a direct unit test. *)
let decide_rollout ~incumbent ~candidate =
  match incumbent with
  | None -> `Rollout
  | Some c -> if candidate >= c then `Rollout else `Rollback

(* Content-keyed dedup: [true] on a chunk id's first delivery, [false]
   (a counted no-op) on every re-delivery. *)
let first_delivery st id =
  if Hashtbl.mem st.ids id then begin
    Tm.incr m_duplicates;
    false
  end
  else begin
    Hashtbl.add st.ids id ();
    true
  end

let execute_step env st ~gen =
  let key = step_key ~gen ~app:st.name in
  let delivered = collect_chunk env st ~gen in
  let cid = Profile_chunk.id delivered in
  let status, redup =
    match accept_chunk delivered with
    | Error e ->
        Tm.incr m_quarantined;
        ("quarantined:" ^ quarantine_tag e, 0)
    | Ok profile ->
        if not (first_delivery st cid) then ("ok", 1)
        else begin
          Tm.incr m_ingested;
          Durable.write_atomic
            (chunk_path env.cfg ~app:st.name ~id:cid)
            delivered;
          Hashtbl.replace st.profiles cid profile;
          push_window env st ~gen ~id:cid;
          (* the re-delivery probe *)
          let redup =
            if env.cfg.redeliver && not (first_delivery st cid) then 1 else 0
          in
          ("ok", redup)
        end
  in
  let wprof = window_profile env st in
  let cov =
    match (st.dep, wprof) with
    | Some d, Some wp ->
        Tm.incr m_rescores;
        Some
          (Rescore.score ~config:env.analysis_config ~rnd:env.rnd ~profile:wp
             d.d_plan)
            .Rescore.coverage
    | _ -> None
  in
  let drift =
    match cov with
    | Some c -> c < env.cfg.decay_frac *. st.ref_cov
    | None -> false
  in
  if drift then Tm.incr m_drift;
  let need_analysis = (st.dep = None && wprof <> None) || drift in
  let action, postcov =
    if not need_analysis then (A_none, cov)
    else begin
      let wp = Option.get wprof in
      let analysed =
        Whisper_error.protect ~context:key Task (fun () ->
            let body () =
              Analyze.run ~config:env.analysis_config ~jobs:env.cfg.jobs wp
            in
            match env.fault with
            | None -> body ()
            | Some f -> Fault.wrap f ~key:("analysis/" ^ key) ~attempt:1 body)
      in
      match analysed with
      | Error _ ->
          Tm.incr m_aquar;
          (A_quarantined, cov)
      | Ok a ->
          Tm.incr m_analyses;
          let cand = a.Analyze.decisions in
          let new_cov =
            (Rescore.score ~config:env.analysis_config ~rnd:env.rnd ~profile:wp
               cand)
              .Rescore.coverage
          in
          let incumbent = if st.dep = None then None else cov in
          match decide_rollout ~incumbent ~candidate:new_cov with
          | `Rollout ->
              begin
            let digest = Rescore.digest cand in
            Durable.write_atomic
              (plan_path env.cfg ~app:st.name ~gen)
              (Rescore.encode cand);
            st.dep <-
              Some
                {
                  d_gen = gen;
                  d_plan = cand;
                  d_digest = digest;
                  d_hints = List.length cand;
                };
            st.ref_cov <- new_cov;
            Tm.incr m_rollouts;
            (A_rollout, Some new_cov)
          end
          | `Rollback ->
              Tm.incr m_rollbacks;
              (A_rollback, cov)
    end
  in
  let step =
    {
      gen;
      app = st.name;
      chunk_id = cid;
      status;
      redup;
      cov;
      drift;
      action;
      deployed = Option.map (fun d -> d.d_gen) st.dep;
      plan_digest = Option.map (fun d -> d.d_digest) st.dep;
      hints = (match st.dep with Some d -> d.d_hints | None -> 0);
      postcov;
    }
  in
  Journal.append env.journal
    { Journal.key; status = Journal.Done; detail = render_step step };
  Hashtbl.replace env.steps key step;
  env.n_completed <- env.n_completed + 1;
  Tm.incr m_steps;
  match env.cfg.max_steps with
  | Some m when env.n_completed >= m -> env.interrupted <- true
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Journal replay                                                     *)
(* ------------------------------------------------------------------ *)

(* Apply one journaled step without re-executing it.  Returns [false]
   (breaking the app's applied prefix, so the step and everything after
   it re-run) when the recorded state cannot be reconstructed — an
   unparseable line, or a rolled-out plan whose stored file no longer
   matches the recorded digest. *)
let apply_step env st (s : step) =
  let ok_chunk =
    if s.status <> "ok" then true
    else
      match chunk_profile env st ~gen:s.gen ~id:s.chunk_id with
      | Some _ ->
          Hashtbl.replace st.ids s.chunk_id ();
          push_window env st ~gen:s.gen ~id:s.chunk_id;
          true
      | None -> false
  in
  if not ok_chunk then false
  else
    match s.action with
    | A_rollout -> (
        match (s.deployed, s.plan_digest, s.postcov) with
        | Some dgen, Some digest, Some postcov when dgen = s.gen -> (
            match
              Option.map Rescore.decode
                (Durable.read (plan_path env.cfg ~app:st.name ~gen:dgen))
            with
            | Some (Ok plan) when Rescore.digest plan = digest ->
                st.dep <-
                  Some
                    {
                      d_gen = dgen;
                      d_plan = plan;
                      d_digest = digest;
                      d_hints = List.length plan;
                    };
                st.ref_cov <- postcov;
                true
            | _ -> false)
        | _ -> false)
    | A_none | A_rollback | A_quarantined ->
        (* the incumbent must be what the line says it was *)
        s.deployed = Option.map (fun d -> d.d_gen) st.dep

let init_states cfg =
  let states = Hashtbl.create 8 in
  List.iter
    (fun app ->
      match Workloads.by_name app with
      | None -> invalid_arg (Printf.sprintf "Serve: unknown app %S" app)
      | Some wcfg ->
          Hashtbl.replace states app
            {
              name = app;
              wcfg;
              cfg_static = Workloads.build_cfg wcfg;
              ids = Hashtbl.create 64;
              profiles = Hashtbl.create 16;
              win = [];
              dep = None;
              ref_cov = 0.0;
              applying = true;
            })
    cfg.apps;
  states

(* ------------------------------------------------------------------ *)
(* Outcome                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ledger : string list;
  summary : string list;
  manifest_id : string;
  total : int;
  completed : int;
  resumed : int;
  chunks_ingested : int;
  duplicates : int;
  chunks_quarantined : int;
  rescores : int;
  drift_detected : int;
  analyses : int;
  analysis_quarantined : int;
  rollouts : int;
  rollbacks : int;
  journal_recovered : bool;
  journal_dropped_bytes : int;
  interrupted : bool;
}

let summarize cfg (steps : step list) =
  let apps = cfg.apps in
  let per_app app =
    let ss = List.filter (fun s -> s.app = app) steps in
    let count f = List.length (List.filter f ss) in
    let last_with f =
      List.fold_left (fun acc s -> match f s with Some _ as v -> v | None -> acc)
        None ss
    in
    let final_cov = last_with (fun s -> s.postcov) in
    let final_dep = last_with (fun s -> s.deployed) in
    let hints =
      List.fold_left (fun acc s -> if s.deployed <> None then s.hints else acc)
        0 ss
    in
    Printf.sprintf
      "app %s: ingested=%d quarantined=%d redelivered=%d rescores=%d drift=%d \
       analyses=%d analysis_quarantined=%d rollouts=%d rollbacks=%d \
       deployed=%s hints=%d final_cov=%s"
      app
      (count (fun s -> s.status = "ok"))
      (count (fun s -> s.status <> "ok"))
      (List.fold_left (fun acc s -> acc + s.redup) 0 ss)
      (count (fun s -> s.cov <> None))
      (count (fun s -> s.drift))
      (count (fun s -> s.action = A_rollout || s.action = A_rollback))
      (count (fun s -> s.action = A_quarantined))
      (count (fun s -> s.action = A_rollout))
      (count (fun s -> s.action = A_rollback))
      (opt_gen final_dep) hints (opt_cov final_cov)
  in
  List.map per_app apps
  @ [
      Printf.sprintf "total: steps=%d apps=%d generations=%d"
        (List.length steps) (List.length apps) cfg.generations;
    ]

let count_steps steps f = List.length (List.filter f steps)

(* ------------------------------------------------------------------ *)
(* Run                                                                *)
(* ------------------------------------------------------------------ *)

let validate cfg =
  let at_least name lo v =
    if v < lo then
      invalid_arg
        (Printf.sprintf "Serve.run: %s must be >= %d, got %d" name lo v)
  in
  at_least "generations" 0 cfg.generations;
  at_least "chunk_events" 0 cfg.chunk_events;
  at_least "max_samples" 0 cfg.max_samples;
  at_least "window" 1 cfg.window;
  match Whisper_bpu.Sizes.for_budget ~kb:cfg.kb with
  | _ -> ()
  | exception Invalid_argument _ ->
      invalid_arg
        (Printf.sprintf
           "Serve.run: kb must be a power of two from 8 to 8192, got %d" cfg.kb)

let run cfg =
  validate cfg;
  let manifest = plan cfg in
  let mid = Manifest.id manifest in
  let total = Array.length manifest.Manifest.items in
  let { Journal.journal; last = prior; recovered; dropped } =
    Journal.open_or_resume ~dir:cfg.state_dir ~resume:cfg.resume manifest
  in
  if recovered then Tm.incr m_recovered;
  if dropped > 0 then Tm.add m_dropped dropped;
  let env =
    {
      cfg;
      analysis_config = Config.default;
      rnd = Randomized.create Config.default;
      fault =
        (if cfg.faults > 0.0 then
           Some
             (Fault.create ~seed:cfg.fault_seed ~hang_s:0.05 ~rate:cfg.faults ())
         else None);
      journal;
      states = init_states cfg;
      steps = Hashtbl.create 64;
      n_completed = 0;
      n_resumed = 0;
      interrupted = false;
    }
  in
  let apps_in_order = cfg.apps in
  (* the whole scenario runs under one span so even a fully-resumed run
     (zero fresh analyses, zero machine work) exports a nonzero spans
     section — `--metrics-valid` must hold on any resume schedule *)
  (Tm.span "serve.run" @@ fun () ->
   let exception Stop in
   try
     for gen = 0 to cfg.generations - 1 do
       List.iter
         (fun app ->
           if env.interrupted then raise Stop;
           let st = Hashtbl.find env.states app in
           let key = step_key ~gen ~app in
           let applied =
             st.applying
             &&
             match Hashtbl.find_opt prior key with
             | Some { Journal.status = Journal.Done; detail; _ } -> (
                 match parse_step detail with
                 | Some s when s.gen = gen && s.app = app ->
                     if apply_step env st s then begin
                       Hashtbl.replace env.steps key s;
                       env.n_resumed <- env.n_resumed + 1;
                       Tm.incr m_resumed;
                       true
                     end
                     else false
                 | _ -> false)
             | _ -> false
           in
           if not applied then begin
             (* once one step re-executes, later journaled steps for the
                same app describe a future the re-execution will
                deterministically reproduce — stop trusting them *)
             st.applying <- false;
             execute_step env st ~gen
           end)
         apps_in_order
     done
   with Stop -> ());
  Journal.close journal;
  let ordered_steps =
    if env.interrupted then []
    else
      Array.to_list manifest.Manifest.items
      |> List.map (fun (it : Manifest.item) -> Hashtbl.find env.steps it.Manifest.key)
  in
  let ledger = List.map render_step ordered_steps in
  {
    ledger;
    summary = (if env.interrupted then [] else summarize cfg ordered_steps);
    manifest_id = mid;
    total;
    completed = env.n_completed;
    resumed = env.n_resumed;
    chunks_ingested = count_steps ordered_steps (fun s -> s.status = "ok");
    duplicates = List.fold_left (fun acc s -> acc + s.redup) 0 ordered_steps;
    chunks_quarantined =
      count_steps ordered_steps (fun s -> s.status <> "ok");
    rescores = count_steps ordered_steps (fun s -> s.cov <> None);
    drift_detected = count_steps ordered_steps (fun s -> s.drift);
    analyses =
      count_steps ordered_steps (fun s ->
          s.action = A_rollout || s.action = A_rollback);
    analysis_quarantined =
      count_steps ordered_steps (fun s -> s.action = A_quarantined);
    rollouts = count_steps ordered_steps (fun s -> s.action = A_rollout);
    rollbacks = count_steps ordered_steps (fun s -> s.action = A_rollback);
    journal_recovered = recovered;
    journal_dropped_bytes = dropped;
    interrupted = env.interrupted;
  }

(* ------------------------------------------------------------------ *)
(* Drift-recovery assertion (the soak gate)                           *)
(* ------------------------------------------------------------------ *)

let check_recovery cfg outcome =
  match cfg.drift_flip with
  | None -> Error "check_recovery: scenario has no drift flip"
  | Some flip ->
      if outcome.interrupted then Error "check_recovery: interrupted run"
      else begin
        let steps = List.filter_map parse_step outcome.ledger in
        let check_app app =
          let ss = List.filter (fun s -> s.app = app) steps in
          let post = List.filter (fun s -> s.gen >= flip) ss in
          let drifts = List.filter (fun s -> s.drift) post in
          let rollouts = List.filter (fun s -> s.action = A_rollout) post in
          if drifts = [] then
            Error
              (Printf.sprintf "%s: no drift detected at or after generation %d"
                 app flip)
          else if rollouts = [] then
            Error (Printf.sprintf "%s: no post-flip rollout" app)
          else begin
            let trough =
              List.fold_left
                (fun acc s ->
                  match s.cov with Some c -> Float.min acc c | None -> acc)
                infinity drifts
            in
            let final_cov =
              List.fold_left
                (fun acc s -> match s.postcov with Some c -> c | None -> acc)
                neg_infinity ss
            in
            if final_cov > trough then Ok ()
            else
              Error
                (Printf.sprintf
                   "%s: coverage did not recover (final %.6f <= trough %.6f)"
                   app final_cov trough)
          end
        in
        List.fold_left
          (fun acc app -> match acc with Error _ -> acc | Ok () -> check_app app)
          (Ok ()) cfg.apps
      end
