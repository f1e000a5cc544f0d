(* Offline run statistics: reconstruct an --all run's story purely from
   the artifacts it left behind — the journal (required), the result
   cache directory and the metrics snapshot (optional).  Nothing here
   re-runs analysis or opens anything for writing, so a journal from a
   killed or still-running run is safe to inspect. *)

module Journal = Extr_resilience.Journal
module Json = Extr_httpmodel.Json
module Store = Extr_store.Store

type app = {
  st_app : string;
  st_status : string;  (* "ok" | "degraded" | "quarantined" | "in-flight" *)
  st_cached : bool;
  st_attempts : int;
  st_txs : int;
  st_wall_s : float option;
      (* first started -> last finished, from the record stamps *)
}

type phase = {
  ph_name : string;
  ph_count : int;
  ph_p50_us : float option;
  ph_p95_us : float option;
  ph_p99_us : float option;
}

type hotspot = {
  hs_meth : string;
  hs_phase : string;
  hs_time_s : float;
  hs_fuel : int;
  hs_visits : int;
  hs_facts : int;
}

type waste = {
  ws_scope : string;
  ws_touched : int;
  ws_contributing : int;
  ws_ratio : float;
}

type t = {
  rs_config : string;
  rs_apps : app list;  (* order of first appearance, journals in input order *)
  rs_finished : int;
  rs_ok : int;
  rs_degraded : int;
  rs_quarantined : int;
  rs_cached : int;
  rs_retries : (string * int) list;  (* reason -> count, by count desc *)
  rs_crashes : (string * int) list;  (* phase -> count, by count desc *)
  rs_wall_s : float option;  (* first stamp -> last stamp *)
  rs_dropped : int;  (* corrupt journal records dropped by the reader *)
  rs_cache_entries : int option;  (* entries on disk under --cache-dir *)
  rs_phases : phase list;  (* pipeline.phase_us series from --metrics *)
  rs_hotspots : hotspot list;  (* profile rows from --profile, time desc *)
  rs_wastes : waste list;  (* waste rows from --profile, by scope *)
}

(* The exact footer line run_all prints, so `extractocol stats` can be
   checked verbatim against the live run's output (trace_check does). *)
let summary_line t =
  Printf.sprintf "%d apps: %d ok, %d degraded, %d quarantined (%d from cache)"
    t.rs_finished t.rs_ok t.rs_degraded t.rs_quarantined t.rs_cached

(* ------------------------------------------------------------------ *)
(* Journal digestion                                                   *)
(* ------------------------------------------------------------------ *)

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let sorted_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare (b : int) a with 0 -> compare ka kb | c -> c)

(* Per-app rows are the final records of [Runner.replay] — the one
   winner rule --resume and merge apply, so an app started again after
   finishing is in flight here exactly when --resume would re-run it.
   The retry and crash taxonomies and the run's wall clock count every
   record of every journal. *)
let of_journals ~config ~dropped sets =
  let retries = Hashtbl.create 8 in
  let crashes = Hashtbl.create 8 in
  let span = ref None in
  List.iter
    (List.iter (fun (stamp, ev) ->
         Option.iter
           (fun s ->
             span :=
               Some
                 (match !span with
                 | None -> (s, s)
                 | Some (lo, hi) -> (min lo s, max hi s)))
           stamp;
         match ev with
         | Journal.Retried { ev_reason; _ } -> bump retries ev_reason
         | Journal.Crashed { ev_phase; _ } -> bump crashes ev_phase
         | Journal.Started _ | Journal.Finished _ -> ()))
    sets;
  let apps =
    List.map
      (fun { Runner.rp_final = fn; _ } ->
        let in_flight =
          { st_app = fn.Runner.fn_app; st_status = "in-flight"; st_cached = false;
            st_attempts = 0; st_txs = 0; st_wall_s = None }
        in
        match fn.Runner.fn_finished with
        | Some
            ( stamp,
              Journal.Finished { ev_status; ev_cached; ev_attempts; ev_txs; _ } )
          ->
            {
              in_flight with
              st_status = ev_status;
              st_cached = ev_cached;
              st_attempts = ev_attempts;
              st_txs = ev_txs;
              st_wall_s =
                (match (fn.Runner.fn_started, stamp) with
                | Some t0, Some t1 when t1 >= t0 -> Some (t1 -. t0)
                | _ -> None);
            }
        | _ -> in_flight)
      (Runner.replay sets)
  in
  let count p = List.length (List.filter p apps) in
  let status st a = a.st_status = st in
  {
    rs_config = config;
    rs_apps = apps;
    rs_finished = count (fun a -> a.st_status <> "in-flight");
    rs_ok = count (status "ok");
    rs_degraded = count (status "degraded");
    rs_quarantined = count (status "quarantined");
    rs_cached = count (fun a -> a.st_cached);
    rs_retries = sorted_counts retries;
    rs_crashes = sorted_counts crashes;
    rs_wall_s = Option.map (fun (lo, hi) -> hi -. lo) !span;
    rs_dropped = dropped;
    rs_cache_entries = None;
    rs_phases = [];
    rs_hotspots = [];
    rs_wastes = [];
  }

(* ------------------------------------------------------------------ *)
(* Optional artifacts                                                  *)
(* ------------------------------------------------------------------ *)

let json_num k j =
  match Json.member k j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int n) -> Some (float_of_int n)
  | _ -> None

(* The pipeline.phase_us series of a metrics snapshot, percentiles
   included — the exporter writes p50/p95/p99 alongside the raw buckets
   precisely so offline consumers don't re-derive them. *)
let phases_of_metrics_json contents =
  match Json.of_string_opt contents with
  | None -> Error "metrics file is not valid JSON"
  | Some j ->
      let series =
        match Json.member "metrics" j with Some (Json.List l) -> l | _ -> []
      in
      Ok
        (List.filter_map
           (fun m ->
             match Json.member "name" m with
             | Some (Json.Str "pipeline.phase_us") ->
                 let phase =
                   match Json.member "labels" m with
                   | Some labels -> (
                       match Json.member "phase" labels with
                       | Some (Json.Str p) -> p
                       | _ -> "?")
                   | None -> "?"
                 in
                 let count =
                   match Json.member "count" m with
                   | Some (Json.Int n) -> n
                   | _ -> 0
                 in
                 Some
                   {
                     ph_name = phase;
                     ph_count = count;
                     ph_p50_us = json_num "p50" m;
                     ph_p95_us = json_num "p95" m;
                     ph_p99_us = json_num "p99" m;
                   }
             | _ -> None)
           series)

let json_int k j =
  match Json.member k j with
  | Some (Json.Int n) -> Some n
  | Some (Json.Float f) -> Some (int_of_float f)
  | _ -> None

let json_str k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

(* The --profile-out artifact: per-method attribution rows plus the
   waste summary.  The file keeps rows in deterministic (phase, method)
   order so reruns diff cleanly; hotspot display wants self time
   descending, so re-sort here. *)
let profile_of_json contents =
  match Json.of_string_opt contents with
  | None -> Error "profile file is not valid JSON"
  | Some j ->
      let rows =
        match Json.member "profile" j with Some (Json.List l) -> l | _ -> []
      in
      let hotspots =
        List.filter_map
          (fun m ->
            match json_str "method" m with
            | None -> None
            | Some meth ->
                Some
                  {
                    hs_meth = meth;
                    hs_phase = Option.value ~default:"?" (json_str "phase" m);
                    hs_time_s = Option.value ~default:0.0 (json_num "time_s" m);
                    hs_fuel = Option.value ~default:0 (json_int "fuel" m);
                    hs_visits = Option.value ~default:0 (json_int "visits" m);
                    hs_facts = Option.value ~default:0 (json_int "facts" m);
                  })
          rows
        |> List.stable_sort (fun a b -> compare b.hs_time_s a.hs_time_s)
      in
      let wastes =
        match Json.member "waste" j with
        | Some (Json.List l) ->
            List.filter_map
              (fun m ->
                match json_str "scope" m with
                | None -> None
                | Some scope ->
                    Some
                      {
                        ws_scope = scope;
                        ws_touched =
                          Option.value ~default:0
                            (json_int "touched_methods" m);
                        ws_contributing =
                          Option.value ~default:0
                            (json_int "contributing_methods" m);
                        ws_ratio =
                          Option.value ~default:0.0 (json_num "waste_ratio" m);
                      })
              l
        | _ -> []
      in
      Ok (hotspots, wastes)

(* One journal is the classic single-run view; a list is a shard set
   inspected before (or instead of) running `merge`.  Per-journal shard
   suffixes are stripped and the bases must agree.  A zero-byte journal
   — a shard that died between open and header, the stale-lock shape —
   is an empty run, not an error. *)
let of_artifacts ~journals ?cache_dir ?metrics ?profile () =
  let single = match journals with [ _ ] -> true | _ -> false in
  let rec read cfg sets dropped = function
    | [] ->
        Ok
          ( (match cfg with Some (shown, _) -> shown | None -> "(empty journal)"),
            List.rev sets,
            dropped )
    | path :: rest -> (
        match Journal.read_lenient ~path with
        | Error msg -> Error msg
        | Ok (None, _, anomalies) ->
            read cfg sets (dropped + List.length anomalies) rest
        | Ok (Some c, events, anomalies) -> (
            let dropped = dropped + List.length anomalies in
            let base, _shard = Runner.strip_shard c in
            (* A single journal keeps its full fingerprint (the shard
               suffix is informative); a set is reported under the
               shared base, which every member must agree on. *)
            match cfg with
            | Some (_, prev) when prev <> base ->
                Error
                  (Printf.sprintf
                     "%s: journal configuration %s does not match the other \
                      journals' (%s)"
                     path base prev)
            | Some _ -> read cfg (events :: sets) dropped rest
            | None ->
                read
                  (Some ((if single then c else base), base))
                  (events :: sets) dropped rest))
  in
  match read None [] 0 journals with
  | Error msg -> Error msg
  | Ok (config, sets, dropped) -> (
      let phases =
        match metrics with
        | None -> Ok []
        | Some path -> (
            match In_channel.with_open_text path In_channel.input_all with
            | exception Sys_error msg -> Error msg
            | contents -> phases_of_metrics_json contents)
      in
      let prof =
        match profile with
        | None -> Ok ([], [])
        | Some path -> (
            match In_channel.with_open_text path In_channel.input_all with
            | exception Sys_error msg -> Error msg
            | contents -> profile_of_json contents)
      in
      match (phases, prof) with
      | Error msg, _ | _, Error msg -> Error msg
      | Ok phases, Ok (hotspots, wastes) ->
          Ok
            {
              (of_journals ~config ~dropped sets) with
              rs_cache_entries =
                Option.map List.length
                  (Option.bind cache_dir (fun dir -> Store.entries ~dir));
              rs_phases = phases;
              rs_hotspots = hotspots;
              rs_wastes = wastes;
            })

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let slowest ?(n = 5) t =
  List.filter_map
    (fun a -> Option.map (fun w -> (a, w)) a.st_wall_s)
    t.rs_apps
  |> List.stable_sort (fun (_, a) (_, b) -> compare (b : float) a)
  |> List.filteri (fun i _ -> i < n)

let pp_opt_ms fmt = function
  | None -> Fmt.pf fmt "%8s" "-"
  | Some us -> Fmt.pf fmt "%8.2f" (us /. 1e3)

let pp fmt t =
  Fmt.pf fmt "run summary (from artifacts)@.";
  Fmt.pf fmt "  config: %s@." t.rs_config;
  Fmt.pf fmt "  %s@." (summary_line t);
  Option.iter (fun w -> Fmt.pf fmt "  wall clock: %.2fs@." w) t.rs_wall_s;
  let in_flight =
    List.filter (fun a -> a.st_status = "in-flight") t.rs_apps
  in
  if in_flight <> [] then
    Fmt.pf fmt "  in flight at journal end: %s@."
      (String.concat ", " (List.map (fun a -> a.st_app) in_flight));
  if t.rs_dropped > 0 then
    Fmt.pf fmt "  corrupt journal records dropped: %d@." t.rs_dropped;
  (match slowest t with
  | [] -> ()
  | slow ->
      Fmt.pf fmt "@.slowest apps:@.";
      List.iter
        (fun (a, w) ->
          Fmt.pf fmt "  %-28s %-11s %7.2fs  %d attempt%s@." a.st_app
            a.st_status w a.st_attempts
            (if a.st_attempts = 1 then "" else "s"))
        slow);
  if t.rs_retries <> [] then begin
    Fmt.pf fmt "@.retry ladder:@.";
    List.iter
      (fun (reason, n) -> Fmt.pf fmt "  %-40s %d@." reason n)
      t.rs_retries
  end;
  if t.rs_crashes <> [] then begin
    Fmt.pf fmt "@.crash taxonomy (by phase):@.";
    List.iter
      (fun (phase, n) -> Fmt.pf fmt "  %-40s %d@." phase n)
      t.rs_crashes
  end;
  Fmt.pf fmt "@.cache:@.";
  Fmt.pf fmt "  journaled hit rate: %d/%d%s@." t.rs_cached t.rs_finished
    (if t.rs_finished > 0 then
       Printf.sprintf " (%.0f%%)"
         (100.0 *. float_of_int t.rs_cached /. float_of_int t.rs_finished)
     else "");
  Option.iter
    (fun n -> Fmt.pf fmt "  entries on disk: %d@." n)
    t.rs_cache_entries;
  if t.rs_phases <> [] then begin
    Fmt.pf fmt "@.pipeline phases (from metrics):@.";
    Fmt.pf fmt "  %-20s %8s %8s %8s %8s@." "phase" "count" "p50(ms)"
      "p95(ms)" "p99(ms)";
    List.iter
      (fun p ->
        Fmt.pf fmt "  %-20s %8d %a %a %a@." p.ph_name p.ph_count pp_opt_ms
          p.ph_p50_us pp_opt_ms p.ph_p95_us pp_opt_ms p.ph_p99_us)
      t.rs_phases
  end;
  if t.rs_hotspots <> [] then begin
    Fmt.pf fmt "@.hot methods (from profile, top 10 by self time):@.";
    Fmt.pf fmt "  %-44s %-20s %9s %8s %8s %6s@." "method" "phase" "self(ms)"
      "fuel" "visits" "facts";
    List.iteri
      (fun i h ->
        if i < 10 then
          Fmt.pf fmt "  %-44s %-20s %9.2f %8d %8d %6d@." h.hs_meth h.hs_phase
            (h.hs_time_s *. 1e3) h.hs_fuel h.hs_visits h.hs_facts)
      t.rs_hotspots
  end;
  if t.rs_wastes <> [] then begin
    Fmt.pf fmt "@.analysis waste (methods touched but contributing to no reported transaction):@.";
    List.iter
      (fun w ->
        Fmt.pf fmt "  %-28s %4d touched, %4d contributing, waste %.0f%%@."
          w.ws_scope w.ws_touched w.ws_contributing (100.0 *. w.ws_ratio))
      t.rs_wastes
  end

(* ------------------------------------------------------------------ *)
(* Offline integrity audit (stats --verify)                            *)
(* ------------------------------------------------------------------ *)

type verify_report = {
  vr_journal_anomalies : (string * Journal.anomaly list) list;
      (* journals with corrupt records, journal order; lists non-empty *)
  vr_journal_errors : (string * string) list;  (* unreadable journals *)
  vr_cache_checked : int;  (* cache entries whose seal was verified *)
  vr_cache_corrupt : (string * string) list;  (* entry file -> reason *)
}

let verify ~journals ?cache_dir () =
  let anomalies = ref [] in
  let errors = ref [] in
  List.iter
    (fun path ->
      match Journal.read_lenient ~path with
      | Error msg -> errors := (path, msg) :: !errors
      | Ok (_, _, a) -> if a <> [] then anomalies := (path, a) :: !anomalies)
    journals;
  let checked, corrupt =
    match cache_dir with None -> (0, []) | Some dir -> Store.audit ~dir
  in
  {
    vr_journal_anomalies = List.rev !anomalies;
    vr_journal_errors = List.rev !errors;
    vr_cache_checked = checked;
    vr_cache_corrupt = corrupt;
  }

let verify_clean r =
  r.vr_journal_anomalies = [] && r.vr_journal_errors = []
  && r.vr_cache_corrupt = []

let pp_verify fmt r =
  Fmt.pf fmt "artifact integrity audit@.";
  List.iter
    (fun (path, msg) -> Fmt.pf fmt "  UNREADABLE %s: %s@." path msg)
    r.vr_journal_errors;
  List.iter
    (fun (path, anomalies) ->
      List.iter
        (fun a -> Fmt.pf fmt "  CORRUPT %s: %a@." path Journal.pp_anomaly a)
        anomalies)
    r.vr_journal_anomalies;
  List.iter
    (fun (file, reason) -> Fmt.pf fmt "  CORRUPT %s: %s@." file reason)
    r.vr_cache_corrupt;
  if r.vr_cache_checked > 0 then
    Fmt.pf fmt "  cache entries verified: %d (%d corrupt)@." r.vr_cache_checked
      (List.length r.vr_cache_corrupt);
  if verify_clean r then Fmt.pf fmt "  all artifacts verified clean@."
  else
    Fmt.pf fmt "  integrity violations found: %d@."
      (List.length r.vr_journal_errors
      + List.fold_left
          (fun n (_, a) -> n + List.length a)
          0 r.vr_journal_anomalies
      + List.length r.vr_cache_corrupt)
