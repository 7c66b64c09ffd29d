(* The [dicheck serve] daemon.  Wire protocol: docs/PROTOCOL.md.

   Shape: any number of connection readers feed one bounded job queue;
   [s_workers] worker domains drain it.  Engines are per-worker (an
   Engine.t is mutable and not safe to share across domains) but all
   workers sit on the same persistent Cache directory, so definition
   fingerprints and interaction memos written by one worker warm the
   others — and the next daemon — through disk. *)

type conn = {
  c_serial : int;  (* cancellation scope: (serial, id) keys p_latest *)
  c_reply : string -> unit;  (* serialized; never raises *)
  c_lock : Mutex.t;
  c_done : Condition.t;
  mutable c_outstanding : int;  (* jobs enqueued, reply not yet delivered *)
}

type job = {
  j_conn : conn;
  j_req : Json.t;
  j_id : Json.t;
  j_key : (int * string) option;  (* None when the request has no id *)
  j_ticket : int;
  j_seq : int;  (* telemetry request id, echoed as the reply's "req" *)
  j_enq_ns : int64;  (* monotonic enqueue time, for the queued span *)
}

type pool = {
  p_lock : Mutex.t;
  p_work : Condition.t;  (* queue became non-empty / stop *)
  p_done : Condition.t;  (* a job finished / queue drained *)
  p_queue : job Queue.t;
  p_stop : bool Atomic.t;
  (* (conn serial, canonical id) -> newest ticket for that id.  A job
     whose ticket is older than the table's is superseded. *)
  p_latest : (int * string, int) Hashtbl.t;
  mutable p_ticket : int;
  mutable p_inflight : int;
  mutable p_served : int;
  mutable p_cancelled : int;
  mutable p_overloaded : int;
  mutable p_workers : unit Domain.t list;
}

type t = {
  s_rules : Tech.Rules.t;
  s_base : Engine.config;
  s_cache_dir : string option;
  s_workers : int;
  s_max_queue : int;
  (* environment digest -> warm engine, for the synchronous
     [handle_line] path only; worker domains keep their own tables *)
  s_engines : (string, Engine.t) Hashtbl.t;
  s_lock : Mutex.t;  (* guards pool creation *)
  mutable s_pool : pool option;
  s_stop_req : bool Atomic.t;
  s_conn_seq : int Atomic.t;
  s_telemetry : Telemetry.t;
}

let create ?(config = Engine.default_config) ?cache_dir ?(workers = 0)
    ?(max_queue = 64) ?telemetry rules =
  { s_rules = rules;
    s_base = config;
    s_cache_dir = cache_dir;
    s_workers = (if workers <= 0 then Domain.recommended_domain_count () else workers);
    s_max_queue = max max_queue 1;
    s_engines = Hashtbl.create 4;
    s_lock = Mutex.create ();
    s_pool = None;
    s_stop_req = Atomic.make false;
    s_conn_seq = Atomic.make 0;
    s_telemetry =
      (match telemetry with Some tel -> tel | None -> Telemetry.create ()) }

let worker_count t = t.s_workers

let telemetry t = t.s_telemetry

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

(* The reply's "req" member: the daemon-assigned request id that also
   keys the event log and the request's trace spans. *)
let req_field = function Some seq -> [ ("req", Json.of_int seq) ] | None -> []

let refuse ?(status = "error") ?(extra = []) id msg =
  Json.to_string
    (Json.Obj
       ([ ("id", id); ("ok", Json.Bool false); ("status", Json.Str status);
          ("error", Json.Str msg) ]
       @ extra
       @ [ ("exit", Json.Num 2.) ]))

let cancelled_reply ?req id =
  refuse ~status:"cancelled" ~extra:(req_field req) id
    "superseded by a newer request with the same id"

let read_file path =
  try Ok (In_channel.with_open_text path In_channel.input_all)
  with Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Checking one request (runs on a worker domain or, via handle_line,
   on the caller's)                                                    *)

(* Engines are keyed by the concatenated per-deck environment digests:
   a single-deck request lands on the same key (and the same warm
   engine) as before deck sets existed, and two requests naming the
   same deck set in the same order share a session. *)
let engine_for t engines config decks =
  let key =
    String.concat "+"
      (List.map (fun (d : Engine.deck) -> Engine.env_key d.Engine.dk_rules config) decks)
  in
  match Hashtbl.find_opt engines key with
  | Some e -> Engine.with_config (Engine.with_decks e decks) config
  | None ->
    let e = Engine.create ~config ?cache_dir:t.s_cache_dir ~decks t.s_rules in
    Hashtbl.replace engines key e;
    e

(* The optional "decks" request member: an array of rule-file paths
   (labelled by basename) or [{"label":..., "path":...|"rules":...}]
   objects with inline rule text.  [Ok None] when absent — the
   single-deck path, whose reply bytes must not change. *)
let parse_decks req =
  match Json.member "decks" req with
  | None -> Ok None
  | Some (Json.Arr []) -> Error "\"decks\" must not be empty"
  | Some (Json.Arr specs) ->
    let deck_of i spec =
      let load ?label path =
        match read_file path with
        | Error msg -> Error msg
        | Ok src -> (
          match Tech.Rules.of_string src with
          | Ok rules ->
            Ok
              (Engine.deck
                 ~label:(Option.value ~default:(Filename.basename path) label)
                 rules)
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
      in
      match spec with
      | Json.Str path -> load path
      | Json.Obj _ -> (
        let label = Option.bind (Json.member "label" spec) Json.str in
        match
          ( Option.bind (Json.member "path" spec) Json.str,
            Option.bind (Json.member "rules" spec) Json.str )
        with
        | Some path, _ -> load ?label path
        | None, Some src -> (
          match Tech.Rules.of_string src with
          | Ok rules ->
            Ok
              (Engine.deck
                 ~label:(Option.value ~default:(Printf.sprintf "deck%d" i) label)
                 rules)
          | Error msg -> Error (Printf.sprintf "deck %d: %s" i msg))
        | None, None -> Error (Printf.sprintf "deck %d needs \"path\" or \"rules\"" i))
      | _ -> Error (Printf.sprintf "deck %d must be a path string or an object" i)
    in
    let rec go i = function
      | [] -> Ok []
      | s :: rest ->
        Result.bind (deck_of i s) (fun d ->
            Result.map (fun ds -> d :: ds) (go (i + 1) rest))
    in
    Result.map (fun ds -> Some (Engine.dedupe_labels ds)) (go 0 specs)
  | Some _ -> Error "\"decks\" must be an array"

let lint_code rule =
  let prefix = "lint." in
  let n = String.length prefix in
  if String.length rule > n && String.sub rule 0 n = prefix then
    String.sub rule n (String.length rule - n)
  else rule

(* What the worker needs to know about a finished check beyond the
   reply line itself: the telemetry facts. *)
type outcome = {
  o_status : string;  (* "ok" | "error" *)
  o_exit : int;
  o_errors : int;
  o_warnings : int;
  o_reuse : (int * int) option;  (* (symbols_total, symbols_reused) *)
}

let error_outcome =
  { o_status = "error"; o_exit = 2; o_errors = 0; o_warnings = 0; o_reuse = None }

let process t engines ?req ?trace reqj =
  let req_members = req_field req in
  let id = Option.value ~default:Json.Null (Json.member "id" reqj) in
  let flag name = Option.bind (Json.member name reqj) Json.bool = Some true in
  let refuse id msg = (refuse ~extra:req_members id msg, error_outcome) in
  (* Per-request tracing: the worker passes the daemon's buffer (with
     the queued span already recorded); the synchronous path makes a
     fresh one when the request opts in with "trace": true. *)
  let trace =
    match trace with
    | Some _ -> trace
    | None -> if flag "trace" then Some (Trace.create ()) else None
  in
  let req = reqj in
  (* Debug aid for exercising cancellation and backpressure
     deterministically; see PROTOCOL.md. *)
  (match Option.bind (Json.member "sleep_ms" req) Json.num with
  | Some ms when ms > 0. -> Unix.sleepf (Float.min ms 10_000. /. 1000.)
  | _ -> ());
  let source =
    match (Option.bind (Json.member "path" req) Json.str,
           Option.bind (Json.member "cif" req) Json.str)
    with
    | Some path, _ -> Result.map (fun src -> (src, path)) (read_file path)
    | None, Some src -> Ok (src, "inline")
    | None, None -> Error "request needs \"path\" or \"cif\""
  in
  match source with
  | Error msg -> refuse id msg
  | Ok (src, uri) -> (
    let lint_werror = flag "lint_werror" in
    let run_lint =
      (match Option.bind (Json.member "lint" req) Json.bool with
      | Some b -> b
      | None -> t.s_base.Engine.run_lint)
      || lint_werror
    in
    let config =
      { t.s_base with
        Engine.interactions =
          { t.s_base.Engine.interactions with
            Interactions.jobs =
              (match Option.bind (Json.member "jobs" req) Json.int with
              | Some j -> j
              | None -> t.s_base.Engine.interactions.Interactions.jobs);
            Interactions.check_same_net =
              (match Option.bind (Json.member "check_same_net" req) Json.bool with
              | Some b -> b
              | None -> t.s_base.Engine.interactions.Interactions.check_same_net) };
        Engine.run_lint }
    in
    match parse_decks req with
    | Error msg -> refuse id msg
    | Ok decks_opt -> (
      let decks =
        match decks_opt with Some ds -> ds | None -> [ Engine.deck t.s_rules ]
      in
      let engine = engine_for t engines config decks in
      let lint_counts_of report =
        if not run_lint then []
        else begin
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun (v : Report.violation) ->
              let code = lint_code v.Report.rule in
              Hashtbl.replace tbl code
                (1 + Option.value ~default:0 (Hashtbl.find_opt tbl code)))
            (Report.by_rule_prefix report "lint.");
          let entries =
            List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])
          in
          [ ("lint_counts",
             Json.Obj (List.map (fun (k, n) -> (k, Json.of_int n)) entries)) ]
        end
      in
      let lint_suppressed_of suppressed =
        (* Per-code counts of waived lint/deckcheck diagnostics.  Only
           present when lint ran and something was actually waived, so
           replies for waiver-free sessions keep their historical
           shape. *)
        if not run_lint || suppressed = [] then []
        else
          [ ("lint_suppressed",
             Json.Obj
               (List.map
                  (fun (k, n) -> (k, Json.of_int n))
                  (Lint.suppressed_counts suppressed))) ]
      in
      match Engine.check_string ?trace engine src with
      | Error msg -> refuse id msg
      | Ok multi ->
        (* A deckless request gets exactly the bytes one-shot
           [dicheck FILE] writes to stdout (the serve smoke diffs
           against that); a deck-set request gets the multi-deck CLI's
           merged report, per-deck detail under "decks", and the
           compliant-intersection verdict. *)
        let view = match decks_opt with None -> `Single | Some _ -> `Merged in
        let report_text = Engine.render ~view multi in
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc report_text))
          (Option.bind (Json.member "out" req) Json.str);
        let werror = flag "werror" in
        let exit_code = Engine.exit_code ~werror ~lint_werror multi in
        let result, _ = Engine.primary multi in
        let merged = multi.Engine.merged in
        let errors, warnings =
          match view with
          | `Single ->
            ( Report.count ~severity:Report.Error result.Engine.report,
              Report.count ~severity:Report.Warning result.Engine.report )
          | `Merged -> (Multireport.errors merged, Multireport.warnings merged)
        in
        let sum f =
          List.fold_left
            (fun acc (dr : Engine.deck_result) -> acc + f dr.Engine.dr_reuse)
            0 multi.Engine.results
        in
        let reuse =
          { Engine.symbols_total = sum (fun r -> r.Engine.symbols_total);
            symbols_reused = sum (fun r -> r.Engine.symbols_reused);
            defs_from_disk = sum (fun r -> r.Engine.defs_from_disk);
            memo_loaded = sum (fun r -> r.Engine.memo_loaded) }
        in
        let tally ~errors ~warnings ~exit (r : Engine.reuse) =
          [ ("errors", Json.of_int errors); ("warnings", Json.of_int warnings);
            ("exit", Json.of_int exit);
            ("symbols_total", Json.of_int r.Engine.symbols_total);
            ("symbols_reused", Json.of_int r.Engine.symbols_reused);
            ("defs_from_disk", Json.of_int r.Engine.defs_from_disk);
            ("memo_loaded", Json.of_int r.Engine.memo_loaded) ]
        in
        let lint_members (dr : Engine.deck_result) =
          lint_counts_of dr.Engine.dr_result.Engine.report
          @ lint_suppressed_of dr.Engine.dr_suppressed
        in
        let deck_fields (dr : Engine.deck_result) exit =
          let report = dr.Engine.dr_result.Engine.report in
          Json.Obj
            ((("label", Json.Str dr.Engine.dr_deck.Engine.dk_label)
             :: tally ~exit dr.Engine.dr_reuse
                  ~errors:(Report.count ~severity:Report.Error report)
                  ~warnings:(Report.count ~severity:Report.Warning report))
            @ lint_members dr)
        in
        let view_members =
          match view with
          | `Single -> lint_members (List.hd multi.Engine.results)
          | `Merged ->
            [ ("decks",
               Json.Arr
                 (List.map2 deck_fields multi.Engine.results
                    (Engine.deck_exits ~werror ~lint_werror multi)));
              ("compliant",
               Json.Arr (List.map (fun l -> Json.Str l) (Multireport.compliant merged)));
              ("all_compliant", Json.Bool (Multireport.all_compliant merged)) ]
        in
        let members =
          [ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "ok") ]
          @ req_members
          @ tally ~errors ~warnings ~exit:exit_code reuse
          @ view_members
          @ [ ("report", Json.Str report_text) ]
          @ (if flag "stats" then [ ("metrics", Metrics.to_json result.Engine.metrics) ]
             else [])
          @ (if flag "sarif" then [ ("sarif", Engine.sarif ~view ~uri multi) ] else [])
          (* The request-scoped span tree, for callers that asked with
             "trace": true.  Opt-in per request: the daemon-level
             --trace collection alone never grows replies. *)
          @ (match trace with
            | Some tr when flag "trace" -> [ ("trace", Trace.chrome tr) ]
            | _ -> [])
        in
        ( Json.to_string (Json.Obj members),
          { o_status = "ok"; o_exit = exit_code; o_errors = errors; o_warnings = warnings;
            o_reuse = Some (reuse.Engine.symbols_total, reuse.Engine.symbols_reused) } )))

let process_safe t engines ?req ?trace reqj =
  try process t engines ?req ?trace reqj
  with exn ->
    ( refuse ~extra:(req_field req)
        (Option.value ~default:Json.Null (Json.member "id" reqj))
        ("internal error: " ^ Printexc.to_string exn),
      error_outcome )

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let is_stale p job =
  match job.j_key with
  | None -> false
  | Some key -> (
    match Hashtbl.find_opt p.p_latest key with
    | Some newest -> newest > job.j_ticket
    | None -> false)

let deliver job line =
  job.j_conn.c_reply line;
  Mutex.lock job.j_conn.c_lock;
  job.j_conn.c_outstanding <- job.j_conn.c_outstanding - 1;
  Condition.broadcast job.j_conn.c_done;
  Mutex.unlock job.j_conn.c_lock

let worker_loop t p w () =
  (* This worker's private engines; warmth crosses workers only
     through the shared on-disk cache. *)
  let tel = t.s_telemetry in
  let engines = Hashtbl.create 4 in
  let rec go () =
    Mutex.lock p.p_lock;
    while Queue.is_empty p.p_queue && not (Atomic.get p.p_stop) do
      Condition.wait p.p_work p.p_lock
    done;
    if Queue.is_empty p.p_queue then begin
      (* Stop requested and nothing left: flush warm state to disk so a
         restarted daemon recovers it, then exit. *)
      Mutex.unlock p.p_lock;
      Hashtbl.iter (fun _ e -> Engine.flush e) engines
    end
    else begin
      let job = Queue.pop p.p_queue in
      p.p_inflight <- p.p_inflight + 1;
      let stale = is_stale p job in
      if stale then p.p_cancelled <- p.p_cancelled + 1;
      let depth = Queue.length p.p_queue in
      Mutex.unlock p.p_lock;
      Telemetry.sample_queue_depth tel depth;
      let deq_ns = Metrics.now_ns () in
      let wait_ns =
        let d = Int64.sub deq_ns job.j_enq_ns in
        if Int64.compare d 0L < 0 then 0L else d
      in
      let line =
        if stale then begin
          Telemetry.request_cancelled tel ~req:job.j_seq ~worker:w ();
          cancelled_reply ~req:job.j_seq job.j_id
        end
        else begin
          Telemetry.request_started tel ~req:job.j_seq ~worker:w ~wait_ns;
          (* Request-scoped span tree: the queued span (enqueue →
             dequeue), then the whole service as a "request" span with
             the engine's stage spans nested inside.  One buffer per
             request, in this worker's lane. *)
          let want_trace =
            Telemetry.collecting_traces tel
            || Option.bind (Json.member "trace" job.j_req) Json.bool = Some true
          in
          let tr = if want_trace then Some (Trace.create ~tid:w ()) else None in
          (match tr with
          | Some tr ->
            Trace.record tr ~cat:"serve"
              ~args:[ ("req", string_of_int job.j_seq) ]
              "queued" ~ts_ns:job.j_enq_ns ~dur_ns:wait_ns
          | None -> ());
          let text, outcome =
            Trace.with_span tr ~cat:"serve"
              ~args:[ ("req", string_of_int job.j_seq) ]
              "request"
              (fun () -> process_safe t engines ~req:job.j_seq ?trace:tr job.j_req)
          in
          let service_ns = Int64.sub (Metrics.now_ns ()) deq_ns in
          (match tr with
          | Some tr when Telemetry.collecting_traces tel ->
            Telemetry.add_trace tel ~req:job.j_seq tr
          | _ -> ());
          (* A newer submission may have arrived while we were
             checking: drop the stale result on the floor. *)
          Mutex.lock p.p_lock;
          let stale_now = is_stale p job in
          if stale_now then p.p_cancelled <- p.p_cancelled + 1
          else p.p_served <- p.p_served + 1;
          Mutex.unlock p.p_lock;
          if stale_now then begin
            Telemetry.request_cancelled tel ~req:job.j_seq ~worker:w ();
            cancelled_reply ~req:job.j_seq job.j_id
          end
          else begin
            (match outcome.o_reuse with
            | Some (total, reused) -> Telemetry.record_reuse tel ~total ~reused
            | None -> ());
            Telemetry.request_finished tel ~req:job.j_seq ~worker:w
              ~status:outcome.o_status ~exit_code:outcome.o_exit
              ~errors:outcome.o_errors ~warnings:outcome.o_warnings ~wait_ns
              ~service_ns;
            text
          end
        end
      in
      deliver job line;
      Telemetry.worker_busy tel ~worker:w
        ~ns:(Int64.sub (Metrics.now_ns ()) deq_ns);
      Mutex.lock p.p_lock;
      p.p_inflight <- p.p_inflight - 1;
      Condition.broadcast p.p_done;
      Mutex.unlock p.p_lock;
      go ()
    end
  in
  go ()

let start t =
  Mutex.lock t.s_lock;
  (match t.s_pool with
  | Some _ -> ()
  | None ->
    let p =
      { p_lock = Mutex.create ();
        p_work = Condition.create ();
        p_done = Condition.create ();
        p_queue = Queue.create ();
        p_stop = Atomic.make false;
        p_latest = Hashtbl.create 16;
        p_ticket = 0;
        p_inflight = 0;
        p_served = 0;
        p_cancelled = 0;
        p_overloaded = 0;
        p_workers = [] }
    in
    t.s_pool <- Some p;
    p.p_workers <-
      List.init t.s_workers (fun w -> Domain.spawn (worker_loop t p w));
    Telemetry.lifecycle t.s_telemetry
      ~fields:[ ("workers", Json.of_int t.s_workers); ("max_queue", Json.of_int t.s_max_queue) ]
      "start");
  Mutex.unlock t.s_lock

let pool t =
  match t.s_pool with
  | Some p -> p
  | None ->
    start t;
    Option.get t.s_pool

let connect t ~reply =
  let lock = Mutex.create () in
  let guarded line =
    Mutex.lock lock;
    (try reply line with _ -> ());
    Mutex.unlock lock
  in
  { c_serial = Atomic.fetch_and_add t.s_conn_seq 1;
    c_reply = guarded;
    c_lock = Mutex.create ();
    c_done = Condition.create ();
    c_outstanding = 0 }

let drain t =
  match t.s_pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.p_lock;
    while not (Queue.is_empty p.p_queue) || p.p_inflight > 0 do
      Condition.wait p.p_done p.p_lock
    done;
    Mutex.unlock p.p_lock

let stopped t =
  Atomic.get t.s_stop_req
  || (match t.s_pool with Some p -> Atomic.get p.p_stop | None -> false)

let request_stop t = Atomic.set t.s_stop_req true

let shutdown t =
  match t.s_pool with
  | None -> Atomic.set t.s_stop_req true
  | Some p ->
    Atomic.set t.s_stop_req true;
    Mutex.lock p.p_lock;
    (* The caller that flips the stop flag owns the lifecycle events:
       concurrent shutdowns log begin/end exactly once. *)
    let first = not (Atomic.exchange p.p_stop true) in
    Condition.broadcast p.p_work;
    (* Claim the workers under the lock so concurrent shutdowns join
       each domain exactly once. *)
    let workers = p.p_workers in
    p.p_workers <- [];
    Mutex.unlock p.p_lock;
    if first then Telemetry.lifecycle t.s_telemetry "shutdown_begin";
    drain t;
    List.iter Domain.join workers;
    if first then begin
      Mutex.lock p.p_lock;
      let served = p.p_served and cancelled = p.p_cancelled in
      let overloaded = p.p_overloaded in
      Mutex.unlock p.p_lock;
      Telemetry.lifecycle t.s_telemetry
        ~fields:
          [ ("served", Json.of_int served); ("cancelled", Json.of_int cancelled);
            ("overloaded", Json.of_int overloaded) ]
        "shutdown"
    end

type stats = {
  queued : int;
  inflight : int;
  served : int;
  cancelled : int;
  overloaded : int;
  workers : int;
}

let stats t =
  match t.s_pool with
  | None ->
    { queued = 0; inflight = 0; served = 0; cancelled = 0; overloaded = 0;
      workers = 0 }
  | Some p ->
    Mutex.lock p.p_lock;
    let s =
      { queued = Queue.length p.p_queue;
        inflight = p.p_inflight;
        served = p.p_served;
        cancelled = p.p_cancelled;
        overloaded = p.p_overloaded;
        workers = List.length p.p_workers }
    in
    Mutex.unlock p.p_lock;
    s

(* The satellite view clients were missing: the ack (and every
   overloaded refusal) carries the pool counters, so a client can see
   what the daemon did — and why it refused. *)
let stats_fields s =
  [ ("served", Json.of_int s.served); ("cancelled", Json.of_int s.cancelled);
    ("overloaded", Json.of_int s.overloaded); ("queued", Json.of_int s.queued);
    ("inflight", Json.of_int s.inflight) ]

let shutdown_ack t id =
  let s = stats t in
  Json.to_string
    (Json.Obj
       ([ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "shutdown") ]
       @ stats_fields s))

(* ------------------------------------------------------------------ *)
(* Admin surface                                                       *)

let stats_snapshot t =
  let s = stats t in
  Telemetry.snapshot t.s_telemetry ~queued:s.queued ~inflight:s.inflight
    ~served:s.served ~cancelled:s.cancelled ~overloaded:s.overloaded
    ~workers:t.s_workers ~max_queue:t.s_max_queue

(* Answered synchronously — admin requests must not queue behind
   checks, and must keep answering while the daemon drains. *)
let admin_reply t id req kind =
  match kind with
  | "stats" -> (
    match Option.bind (Json.member "format" req) Json.str with
    | Some "prometheus" ->
      (* Text exposition for scrapers that can't walk the JSON shape;
         the snapshot is the same either way. *)
      Json.to_string
        (Json.Obj
           [ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "stats");
             ("prometheus", Json.Str (Telemetry.prometheus (stats_snapshot t))) ])
    | Some fmt when fmt <> "json" ->
      refuse id (Printf.sprintf "unknown stats format %S" fmt)
    | _ ->
      Json.to_string
        (Json.Obj
           [ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "stats");
             ("stats", stats_snapshot t) ]))
  | "health" ->
    let s = stats t in
    let state = if stopped t then "draining" else "ok" in
    Json.to_string
      (Json.Obj
         [ ("id", id); ("ok", Json.Bool true); ("status", Json.Str "health");
           ("health", Json.Str state);
           ("uptime_s", Json.Num (Telemetry.uptime_s t.s_telemetry));
           ("workers", Json.of_int t.s_workers); ("queued", Json.of_int s.queued);
           ("inflight", Json.of_int s.inflight) ])
  | other -> refuse id (Printf.sprintf "unknown admin request %S" other)

let admin_of req = Option.bind (Json.member "admin" req) Json.str

let submit t conn line =
  if String.trim line <> "" then begin
    match Json.parse line with
    | Error msg ->
      Telemetry.request_rejected t.s_telemetry ~error:("bad request: " ^ msg);
      conn.c_reply (refuse Json.Null ("bad request: " ^ msg))
    | Ok req ->
      let id = Option.value ~default:Json.Null (Json.member "id" req) in
      if Option.bind (Json.member "shutdown" req) Json.bool = Some true then begin
        shutdown t;
        conn.c_reply (shutdown_ack t id)
      end
      else begin
        match admin_of req with
        | Some kind -> conn.c_reply (admin_reply t id req kind)
        | None ->
          let p = pool t in
          let seq = Telemetry.next_request t.s_telemetry in
          (* Telemetry calls below run under p_lock so the event log
             orders accepted before the worker's started.  Lock order
             is always pool → telemetry, never the reverse. *)
          Mutex.lock p.p_lock;
          if Atomic.get p.p_stop then begin
            Telemetry.request_rejected t.s_telemetry
              ~error:"server is shutting down";
            Mutex.unlock p.p_lock;
            conn.c_reply
              (refuse ~status:"shutdown" ~extra:(req_field (Some seq)) id
                 "server is shutting down")
          end
          else if Queue.length p.p_queue >= t.s_max_queue then begin
            p.p_overloaded <- p.p_overloaded + 1;
            let extra =
              req_field (Some seq)
              @ [ ("served", Json.of_int p.p_served); ("queued", Json.of_int (Queue.length p.p_queue));
                  ("inflight", Json.of_int p.p_inflight) ]
            in
            Telemetry.request_overloaded t.s_telemetry ~req:seq
              ~queued:(Queue.length p.p_queue);
            Mutex.unlock p.p_lock;
            conn.c_reply
              (refuse ~status:"overloaded" ~extra id
                 "request queue is full; retry later")
          end
          else begin
            p.p_ticket <- p.p_ticket + 1;
            let key =
              match id with
              | Json.Null -> None
              | _ -> Some (conn.c_serial, Json.to_string id)
            in
            (match key with
            | Some k -> Hashtbl.replace p.p_latest k p.p_ticket
            | None -> ());
            Queue.push
              { j_conn = conn; j_req = req; j_id = id; j_key = key;
                j_ticket = p.p_ticket; j_seq = seq;
                j_enq_ns = Metrics.now_ns () }
              p.p_queue;
            Mutex.lock conn.c_lock;
            conn.c_outstanding <- conn.c_outstanding + 1;
            Mutex.unlock conn.c_lock;
            Telemetry.request_accepted t.s_telemetry ~req:seq ~id
              ~queued:(Queue.length p.p_queue);
            Condition.signal p.p_work;
            Mutex.unlock p.p_lock
          end
      end
  end

(* All replies owed to this connection have been written. *)
let conn_drain conn =
  Mutex.lock conn.c_lock;
  while conn.c_outstanding > 0 do
    Condition.wait conn.c_done conn.c_lock
  done;
  Mutex.unlock conn.c_lock

(* ------------------------------------------------------------------ *)
(* Synchronous embedding (tests, one-off scripting)                    *)

let handle_line t line =
  match Json.parse line with
  | Error msg ->
    Telemetry.request_rejected t.s_telemetry ~error:("bad request: " ^ msg);
    refuse Json.Null ("bad request: " ^ msg)
  | Ok req ->
    let id = Option.value ~default:Json.Null (Json.member "id" req) in
    if Option.bind (Json.member "shutdown" req) Json.bool = Some true then begin
      shutdown t;
      shutdown_ack t id
    end
    else begin
      match admin_of req with
      | Some kind -> admin_reply t id req kind
      | None -> fst (process_safe t t.s_engines req)
    end

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)

(* Raw-fd line reader.  Buffered channels read ahead, which makes them
   unusable with select; this reader owns its buffer and polls [stop]
   every [tick] seconds while idle so SIGTERM and protocol shutdowns
   interrupt a blocked daemon promptly. *)
type reader = {
  r_fd : Unix.file_descr;
  r_buf : Buffer.t;
  r_lines : string Queue.t;
  mutable r_eof : bool;
}

let reader fd =
  { r_fd = fd; r_buf = Buffer.create 256; r_lines = Queue.create (); r_eof = false }

let reader_feed r chunk =
  String.iter
    (fun c ->
      if c = '\n' then begin
        Queue.push (Buffer.contents r.r_buf) r.r_lines;
        Buffer.clear r.r_buf
      end
      else Buffer.add_char r.r_buf c)
    chunk

let rec next_line ~stop r =
  if not (Queue.is_empty r.r_lines) then Some (Queue.pop r.r_lines)
  else if r.r_eof || stop () then None
  else begin
    let ready =
      try (match Unix.select [ r.r_fd ] [] [] 0.1 with [], _, _ -> false | _ -> true)
      with Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if ready then begin
      let bytes = Bytes.create 65536 in
      let n =
        try Unix.read r.r_fd bytes 0 (Bytes.length bytes)
        with
        | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1
        | Unix.Unix_error (_, _, _) -> 0 (* connection error reads as EOF *)
      in
      if n = 0 then begin
        r.r_eof <- true;
        if Buffer.length r.r_buf > 0 then begin
          (* Serve a final unterminated line rather than drop it. *)
          Queue.push (Buffer.contents r.r_buf) r.r_lines;
          Buffer.clear r.r_buf
        end
      end
      else if n > 0 then reader_feed r (Bytes.sub_string bytes 0 n)
    end;
    next_line ~stop r
  end

(* Whole lines, serialized per fd, write errors swallowed (the client
   may be gone; its remaining replies just vanish). *)
let fd_writer fd =
  fun line ->
    try
      let s = line ^ "\n" in
      let len = String.length s in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring fd s !off (len - !off)
      done
    with Unix.Unix_error _ -> ()

let read_loop t conn r =
  let rec go () =
    match next_line ~stop:(fun () -> stopped t) r with
    | None -> ()
    | Some line ->
      submit t conn line;
      if stopped t then () else go ()
  in
  go ()

let serve_stdio t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  start t;
  let conn = connect t ~reply:(fd_writer Unix.stdout) in
  read_loop t conn (reader Unix.stdin);
  (* EOF or stop: answer everything still queued, flush, and leave. *)
  shutdown t;
  conn_drain conn

let serve_socket t ~path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  start t;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  let client_loop fd () =
    let conn = connect t ~reply:(fd_writer fd) in
    read_loop t conn (reader fd);
    (* Keep the fd open until every reply owed to this connection is
       out; workers write replies from their own domains. *)
    conn_drain conn;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let readers = ref [] in
  let rec accept_loop () =
    if stopped t then ()
    else begin
      let ready =
        try (match Unix.select [ sock ] [] [] 0.1 with [], _, _ -> false | _ -> true)
        with Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      (if ready then
         match (try Some (Unix.accept sock) with Unix.Unix_error _ -> None) with
         | Some (fd, _) -> readers := Domain.spawn (client_loop fd) :: !readers
         | None -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  shutdown t;
  List.iter Domain.join !readers;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ())
