(* perfbench: the resolver's benchmark.

   One workload per run, chosen with --workload:

   - batch:  2000 small Person entities through Engine.run_batch, with an
             oracle user answering one attribute per round;
   - deep:   two Person entities of ~7000 tuples each, same pipeline;
   - stream: an Update_log replay of 1000 entities through a crsolved
             child process on a fresh WAL directory, restarted half-way.

   Inputs come from --seed and are generated before any timer starts.
   Every answer is checked against a reference built from the generator's
   held-out stamps: a resolved value must equal the value of the
   latest-stamped tuple the entity holds (or has received so far). A
   wrong answer exits 1. The last stdout line is the result object; the
   line before it records the host fingerprint and the run's details.
   See README.md for the metrics and how to read them. *)

open Crcore

(* ---- clock, statistics, host ---- *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile, [p] in (0, 1] *)
let percentile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM, the resident-set high-water mark, of [pid] ("self" for this
   process), in MiB *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.)

(* the host's processors; the run itself may be held to fewer *)
let host_cores () =
  List.length
    (List.filter
       (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
       (String.split_on_char '\n' (read_file "/proc/cpuinfo")))

(* A fixed integer loop, timed before and after the run: a disturbed host
   shows as a slow or uneven loop. It never scales a metric. *)
let arith_loop_s () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 100_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

(* ---- options ---- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  crsolved : string;
  git_rev : string;
}

let usage =
  "perfbench --workload batch|deep|stream --seed N --seconds S --trace 0|1 \
   [--size full|tiny] [--tamper] [--crsolved PATH] [--git-rev REV]"

(* --tamper: flip the first resolved value before it is checked; the run
   must then fail, which shows the checker is not vacuous *)
let tamper_pending = ref false

let parse_opts () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tiny = ref false and crsolved = ref "_build/default/bin/crsolved.exe" in
  let git_rev = ref "unknown" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME batch, deep or stream");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 1 reports the per-layer metrics");
      ("--size", Arg.Symbol ([ "full"; "tiny" ], fun s -> tiny := s = "tiny"), " input size");
      ("--tamper", Arg.Set tamper_pending, " corrupt one answer; the run must fail");
      ("--crsolved", Arg.Set_string crsolved, "PATH the daemon binary (stream)");
      ("--git-rev", Arg.Set_string git_rev, "REV recorded in the fingerprint");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload [ "batch"; "deep"; "stream" ]) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    tiny = !tiny;
    crsolved = !crsolved;
    git_rev = !git_rev;
  }

(* ---- checking ---- *)

exception Wrong of string

let attempted = ref 0
let failed = ref 0

(* --tamper's wrong answer: another value the entity holds for the
   attribute; attributes without one are left alone *)
let tamper entity a v =
  match List.find_opt (fun w -> not (Value.equal w v)) (Entity.active_domain entity a) with
  | Some w ->
      tamper_pending := false;
      w
  | None -> v

(* the entity's true current tuple: its latest-stamped one *)
let latest (c : Datagen.Types.case) =
  let best = ref 0 in
  Array.iteri (fun i s -> if s > c.Datagen.Types.stamps.(!best) then best := i) c.stamps;
  Entity.tuple c.entity !best

(* [check_value ~label ~reference a v]: a resolved value must be the
   reference tuple's value *)
let check_value ~label ~reference a v =
  if not (Value.equal v (Tuple.get reference a)) then
    raise
      (Wrong
         (Printf.sprintf "%s: %s resolved to %s, reference is %s" label
            (Schema.name (Tuple.schema reference) a)
            (Value.to_string v)
            (Value.to_string (Tuple.get reference a))))

(* ---- output ---- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value = (if Float.is_finite value then value else 0.) }

let jfloat f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let jmetrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (jfloat x.value) x.unit_)
         ms)
  ^ "}"

(* ---- JSON replies of crsolved ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let n = String.length s and pos = ref 0 in
  let bad () = failwith (Printf.sprintf "bad JSON at %d: %s" !pos s) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v) else bad ()
  in
  let str () =
    if peek () <> '"' then bad ();
    incr pos;
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad ();
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        let e = peek () in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      end
      else (Buffer.add_char b c; go ())
    in
    go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            if peek () <> ':' then bad ();
            incr pos;
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> bad ()
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> bad ()
          in
          items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
        do
          incr pos
        done;
        if !pos = start then bad ();
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  value ()

let member k = function Obj l -> (try List.assoc k l with Not_found -> Null) | _ -> Null
let num k j = match member k j with Num f -> f | _ -> 0.

let value_of_json = function
  | Num f when Float.is_integer f -> Value.Int (int_of_float f)
  | Num f -> Value.Float f
  | Str s -> Value.Str s
  | Null -> Value.Null
  | Bool _ | Arr _ | Obj _ -> Value.Str "(not a value)"

(* ---- workload inputs ---- *)

(* the paper's Person data: 983 currency constraints, 1000 CFD patterns *)
let person ~seed ~n ~size_min ~size_max ~extra_events =
  Datagen.Person.generate
    {
      Datagen.Person.default_params with
      n_entities = n;
      size_min;
      size_max;
      extra_events;
      seed;
    }

let batch_data ~tiny ~seed =
  person ~seed ~n:(if tiny then 24 else 2000) ~size_min:4 ~size_max:10 ~extra_events:2

(* The cost of resolving a 7000-tuple history varies from one generated
   history to the next far more than the changes this workload exists to
   measure. So deep always resolves the same two histories (generator seed
   2013), and --seed permutes the order of their tuples: that changes the
   tuple ids and the variable numbering, not the history or the answer. *)
let deep_data ~tiny ~seed =
  let size = if tiny then 300 else 7000 in
  let ds = person ~seed:2013 ~n:2 ~size_min:size ~size_max:size ~extra_events:(size / 100) in
  let permute (c : Datagen.Types.case) =
    let pairs = Array.of_list (List.mapi (fun i t -> (t, c.stamps.(i))) (Entity.tuples c.entity)) in
    Datagen.Types.shuffle (Random.State.make [| seed; c.id |]) pairs;
    {
      c with
      entity = Entity.make (Entity.schema c.entity) (Array.to_list (Array.map fst pairs));
      stamps = Array.map snd pairs;
    }
  in
  { ds with cases = List.map permute ds.Datagen.Types.cases }

(* small-world Person entities for the daemon stream *)
let stream_data ~tiny ~seed =
  Datagen.Person.generate
    {
      Datagen.Person.default_params with
      n_status_chains = 8;
      n_job_chains = 8;
      n_cities = 12;
      n_entities = (if tiny then 40 else 1000);
      size_min = 8;
      size_max = 16;
      seed;
    }

(* Set-up time drifts with the host as much as any other figure, so it is
   sampled at least five times, and for at least a second, and reported
   as the median: [timed_setup f] times [f] in forked children, so that
   every sample starts from the same cold process state, then once here,
   and returns the median with the parent's own result. *)
let timed_setup f =
  let forked () =
    let r, w = Unix.pipe ~cloexec:true () in
    flush_all ();
    match Unix.fork () with
    | 0 ->
        (try
           Unix.close r;
           let t0 = now () in
           ignore (Sys.opaque_identity (f ()));
           let s = Printf.sprintf "%.17g" (now () -. t0) in
           ignore (Unix.write_substring w s 0 (String.length s));
           Unix._exit 0
         with _ -> Unix._exit 3)
    | pid ->
        Unix.close w;
        let ic = Unix.in_channel_of_descr r in
        let s = In_channel.input_all ic in
        close_in ic;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "a set-up sample failed");
        float_of_string s
  in
  let rec sample acc =
    if List.length acc >= 4 && List.fold_left ( +. ) 0. acc >= 1. then acc
    else sample (forked () :: acc)
  in
  let samples = sample [] in
  let t0 = now () in
  let v = f () in
  let own = now () -. t0 in
  (median (own :: samples), v)

(* Every run repeats its whole workload at least this often, so that the
   per-entity and per-request medians below always have a middle value to
   pick; past that it repeats until --seconds have passed. *)
let min_repeats = 3

(* ---- batch and deep: Engine.run_batch ---- *)

(* The simulated user: asked about some attributes, it answers the first
   one from the reference tuple. *)
let oracle reference : Engine.user =
 fun suggestion ~schema ->
  match suggestion.Rules.attrs with
  | [] -> []
  | a :: _ -> [ (Schema.name schema a, Tuple.get reference a) ]

let engine_input (ds : Datagen.Types.dataset) =
  let cases = Array.of_list ds.Datagen.Types.cases in
  let refs = Array.map latest cases in
  let items =
    Array.to_list
      (Array.mapi
         (fun i (c : Datagen.Types.case) ->
           {
             Engine.label = Printf.sprintf "e%d" c.id;
             spec = Datagen.Types.spec_of ds c;
             user = oracle refs.(i);
           })
         cases)
  in
  (items, refs)

(* per-pass answers: resolved values and user rounds, after checking *)
let check_pass items refs (results : Engine.item_result list) =
  let values = ref 0 and rounds = ref 0 in
  List.iteri
    (fun i ((r : Engine.item_result), (item : Engine.item)) ->
      incr attempted;
      match r.outcome with
      | Error _ -> incr failed
      | Ok res ->
          if not res.Engine.valid then raise (Wrong (r.label ^ ": judged invalid"));
          rounds := !rounds + res.rounds;
          Array.iteri
            (fun a v ->
              match v with
              | None -> ()
              | Some v ->
                  let v = if !tamper_pending then tamper item.spec.entity a v else v in
                  check_value ~label:r.label ~reference:refs.(i) a v;
                  incr values)
            res.resolved)
    (List.combine results items);
  (!values, !rounds)

type engine_run = {
  mutable spans : float array list;  (** seconds per entity, one array per pass *)
  phase_ms : float array;
      (** lint, encode, saturate, validity, deduce, suggest, simplify,
          summed over every pass *)
  mutable pass_s : float list;  (** wall seconds of each pass, latest first *)
  mutable rss : float;
  mutable last : Engine.stats option;
  mutable values : int;
  mutable rounds : int;
}

let engine_workload opts ~data ~warmup =
  let setup_s, (items, refs) =
    timed_setup (fun () ->
        let input = engine_input (data ()) in
        ignore (Engine.run_batch (warmup (fst input)));
        input)
  in
  let n = List.length items in
  let run =
    {
      spans = [];
      phase_ms = Array.make 7 0.;
      pass_s = [];
      rss = 0.;
      last = None;
      values = 0;
      rounds = 0;
    }
  in
  let t_start = now () in
  while List.length run.spans < min_repeats || now () -. t_start < opts.seconds do
    (* with one job, on_result fires as each entity finishes: the gap
       between consecutive calls is that entity's span *)
    let spans = Array.make n 0. and k = ref 0 and last = ref 0. in
    let on_result _ =
      let t = now () in
      spans.(!k) <- t -. !last;
      last := t;
      incr k
    in
    let t0 = now () in
    last := t0;
    let results, stats = Engine.run_batch ~config:Engine.default_config ~on_result items in
    run.pass_s <- (now () -. t0) :: run.pass_s;
    (* the peak of set-up plus one pass: the heap's high-water mark keeps
       creeping up over later passes with the collector's pacing, so a
       longer run would otherwise read as more memory *)
    if run.spans = [] then run.rss <- peak_rss_mb "self";
    let values, rounds = check_pass items refs results in
    run.spans <- spans :: run.spans;
    let t = stats.Engine.times in
    List.iteri
      (fun i x -> run.phase_ms.(i) <- run.phase_ms.(i) +. x)
      [
        t.lint_ms; t.encode_ms; t.saturate_ms; t.validity_ms; t.deduce_ms; t.suggest_ms;
        stats.solver.Sat.Solver.simplify_ms;
      ];
    run.last <- Some stats;
    run.values <- values;
    run.rounds <- rounds
  done;
  (* Host speed drifts by a fifth from one pass to the next, so each
     entity counts with its median span over the passes: a burst that
     slows one pass does not move the figures *)
  let medians = List.init n (fun i -> median (List.map (fun a -> a.(i)) run.spans)) in
  let ops_per_s = float_of_int n /. List.fold_left ( +. ) 0. medians in
  let latency_ms = 1000. *. median medians in
  let span_total = List.fold_left (fun acc a -> Array.fold_left ( +. ) acc a) 0. run.spans in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MiB" run.rss;
      m "ops_per_s" "1/s" ops_per_s;
      m "latency_ms" "ms" latency_ms;
      m "values_resolved" "count" (float_of_int run.values);
      m "user_rounds" "count" (float_of_int run.rounds);
    ]
  in
  let layers =
    let st = Option.get run.last in
    let per_entity x = x /. float_of_int (n * List.length run.spans) in
    let ph i = per_entity run.phase_ms.(i) in
    let entity_ms = per_entity (1000. *. span_total) in
    let phase_sum = ph 0 +. ph 1 +. ph 2 +. ph 3 +. ph 4 +. ph 5 in
    let c name x = m name "count" (float_of_int x) in
    [
      m "engine.entity_ms" "ms" entity_ms;
      m "engine.unattributed_ms" "ms" (entity_ms -. phase_sum);
      m "analyze.lint_ms" "ms" (ph 0);
      m "encode.encode_ms" "ms" (ph 1);
      m "encode.alloc_words" "words" st.encode_alloc_words;
      c "encode.instantiations" st.instantiations;
      c "encode.template_hits" st.template_hits;
      c "encode.delta_extensions" st.delta_extensions;
      c "encode.rebuilds_renumbered" st.rebuilds_renumbered;
      m "saturate.saturate_ms" "ms" (ph 2);
      c "saturate.probes_avoided" st.probes_avoided;
      m "sat.validity_ms" "ms" (ph 3);
      c "sat.propagations" st.solver.Sat.Solver.propagations;
      c "sat.decisions" st.solver.Sat.Solver.decisions;
      c "sat.conflicts" st.solver.Sat.Solver.conflicts;
      m "sat.simplify_ms" "ms" (ph 6);
      c "sat.subsumed" st.solver.Sat.Solver.subsumed;
      c "sat.solvers_built" st.solvers_built;
      m "deduce.deduce_ms" "ms" (ph 4);
      c "deduce.probes" st.deduce_probes;
      c "deduce.sat_calls" st.deduce_sat_calls;
      c "deduce.model_prunes" st.deduce_model_prunes;
      m "rules.suggest_ms" "ms" (ph 5);
      m "trace.ops_per_s" "1/s" ops_per_s;
      m "trace.latency_ms" "ms" latency_ms;
    ]
  in
  let detail =
    let share i = Printf.sprintf "%.4f" (run.phase_ms.(i) /. (1000. *. span_total)) in
    Printf.sprintf
      "{\"passes\": %d, \"entities_per_pass\": %d, \"pass_s\": [%s], \
       \"phase_share_of_entity_time\": {%s}}"
      (List.length run.spans) n
      (String.concat ", " (List.rev_map jfloat run.pass_s))
      (String.concat ", "
         (List.mapi
            (fun i p -> Printf.sprintf "%S: %s" p (share i))
            [ "lint"; "encode"; "saturate"; "validity"; "deduce"; "suggest" ]))
  in
  (e2e, layers, detail)

let batch opts =
  engine_workload opts
    ~data:(fun () -> batch_data ~tiny:opts.tiny ~seed:opts.seed)
    ~warmup:(List.filteri (fun i _ -> i < 100))

let deep opts =
  engine_workload opts
    ~data:(fun () -> deep_data ~tiny:opts.tiny ~seed:opts.seed)
    ~warmup:(fun _ ->
      (* compile the Person shape template on small entities of the same
         Σ/Γ; the deep entities themselves stay cold *)
      fst (engine_input (person ~seed:opts.seed ~n:4 ~size_min:4 ~size_max:10 ~extra_events:2)))

(* ---- stream: a crsolved child process over its Unix socket ---- *)

type kind = Open | Ingest | Order | Resolve

type op = {
  line : string;
  kind : kind;
  lid : int;  (** entity index *)
  arrival : (int * Tuple.t) option;  (** an ingested tuple and its held-out stamp *)
}

(* The update log as protocol lines: an [@1 OPEN] before each entity's
   first event, [@seq]-stamped writes, plain RESOLVE reads. *)
let stream_ops (ds : Datagen.Types.dataset) log =
  let csv_row values = String.trim (Csv.to_string [ values ]) in
  let row t = csv_row (List.map Value.to_string (Tuple.values t)) in
  let header = csv_row (Schema.attr_names ds.Datagen.Types.schema) in
  let labels = Array.of_list (Datagen.Update_log.labels log) in
  let lid_of = Hashtbl.create (Array.length labels) in
  Array.iteri (fun i l -> Hashtbl.replace lid_of l i) labels;
  (* per entity: row -> held-out stamp (equal rows carry equal stamps) *)
  let stamps =
    List.map
      (fun (c : Datagen.Types.case) ->
        let t = Hashtbl.create 16 in
        List.iteri (fun k tu -> Hashtbl.replace t (row tu) c.stamps.(k)) (Entity.tuples c.entity);
        t)
      ds.cases
    |> Array.of_list
  in
  let opened = Array.make (Array.length labels) false in
  let ops = ref [] in
  let emit o = ops := o :: !ops in
  List.iter
    (fun (seq, ev) ->
      let label =
        match ev with
        | Datagen.Update_log.Arrival { label; _ }
        | Datagen.Update_log.Assert_order { label; _ }
        | Datagen.Update_log.Resolve label ->
            label
      in
      let lid = Hashtbl.find lid_of label in
      if not opened.(lid) then begin
        opened.(lid) <- true;
        emit
          {
            line = Printf.sprintf "@%d OPEN %s|%s" Datagen.Update_log.open_seq label header;
            kind = Open;
            lid;
            arrival = None;
          }
      end;
      let seq = Option.value seq ~default:0 in
      match ev with
      | Datagen.Update_log.Arrival { tuple; _ } ->
          let r = row tuple in
          emit
            {
              line = Printf.sprintf "@%d INGEST %s|%s" seq label r;
              kind = Ingest;
              lid;
              arrival = Some (Hashtbl.find stamps.(lid) r, tuple);
            }
      | Datagen.Update_log.Assert_order { order; _ } ->
          emit
            {
              line =
                Printf.sprintf "@%d ORDER %s|%s|%d|%d" seq label order.Spec.attr order.Spec.lo
                  order.Spec.hi;
              kind = Order;
              lid;
              arrival = None;
            }
      | Datagen.Update_log.Resolve _ ->
          emit { line = "RESOLVE " ^ label; kind = Resolve; lid; arrival = None })
    (Datagen.Update_log.with_seqs log);
  (labels, Array.of_list (List.rev !ops))

type conn = { ic : in_channel; oc : out_channel }

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close_conn c = close_in_noerr c.ic

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let copy_dir src dst =
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let data = read_file (Filename.concat src f) in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> output_string oc data))
    (Sys.readdir src)

(* the live daemon, killed on any exit path *)
let daemon_pid = ref None

let reap_daemon () =
  match !daemon_pid with
  | None -> ()
  | Some pid ->
      daemon_pid := None;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

type daemon = { pid : int; conn : conn }

(* Start crsolved on [dir]'s WAL directory and wait until READY answers;
   returns the daemon and the start-to-READY seconds. The READY
   connection is the stream's client connection. *)
let start_daemon opts ~dir ~n_entities =
  let sock = Filename.concat dir "d.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process opts.crsolved
      [|
        opts.crsolved; "--socket"; sock; "-s"; Filename.concat dir "sigma.txt"; "-g";
        Filename.concat dir "gamma.txt"; "--wal-dir"; Filename.concat dir "wal";
        "--max-sessions"; string_of_int (2 * n_entities);
      |]
      null log log
  in
  daemon_pid := Some pid;
  Unix.close null;
  Unix.close log;
  let rec await () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        daemon_pid := None;
        failwith ("crsolved exited at start-up; see " ^ Filename.concat dir "daemon.log"));
    if now () -. t0 > 60. then failwith "crsolved did not become ready";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        let c = { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd } in
        if member "ready" (parse_json (request c "READY")) = Bool true then c
        else (close_conn c; Unix.sleepf 0.001; await ())
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        Unix.sleepf 0.001;
        await ()
  in
  let conn = await () in
  ({ pid; conn }, now () -. t0)

let stop_daemon d =
  ignore (request d.conn "SHUTDOWN");
  close_conn d.conn;
  ignore (Unix.waitpid [] d.pid);
  daemon_pid := None

(* framed WAL bytes per record, over the segments on disk *)
let wal_bytes_per_write wal =
  let bytes = ref 0 and records = ref 0 in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".log" then begin
        let scan = Durable.Frame.read_file (Filename.concat wal f) in
        bytes := !bytes + scan.Durable.Frame.valid_bytes;
        records := !records + List.length scan.payloads
      end)
    (Sys.readdir wal);
  if !records = 0 then 0. else float_of_int !bytes /. float_of_int !records

type stream_run = {
  mutable lats : float array list;
      (** seconds per request of the timed half, one array per round *)
  mutable pings : float list;
  mutable setup : float;
  mutable rss : float list;  (** the daemon's peak, one per round *)
  mutable values : int;  (** resolved values in the timed half, last round *)
  mutable unresolved : int;
      (** attributes left unresolved by each entity's last read, last round *)
  mutable stats : json;
  mutable health : json;
  mutable wal_bpw : float;
}

let stream opts =
  let ds = stream_data ~tiny:opts.tiny ~seed:opts.seed in
  let log =
    Datagen.Update_log.replay
      ~params:{ Datagen.Update_log.default_params with seed = opts.seed }
      ds
  in
  let labels, ops = stream_ops ds log in
  let n_ent = Array.length labels and n_ops = Array.length ops in
  let entities = Array.of_list (List.map (fun (c : Datagen.Types.case) -> c.entity) ds.cases) in
  let schema = ds.Datagen.Types.schema in
  let arity = Schema.arity schema in
  let half = n_ops / 2 in
  let n_timed = n_ops - half in
  (* the class of each timed request; the same in every round *)
  let classes = Array.make n_timed "" in
  let root = ".perfbench_run" in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let write_lines file lines =
    Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  in
  write_lines "sigma.txt" (List.map Currency.Constraint_ast.to_string ds.sigma);
  write_lines "gamma.txt" (List.map Cfd.Constant_cfd.to_string ds.gamma);
  let wal = Filename.concat dir "wal" and backup = Filename.concat dir "wal.bak" in
  let r =
    {
      lats = [];
      pings = [];
      setup = 0.;
      rss = [];
      values = 0;
      unresolved = 0;
      stats = Null;
      health = Null;
      wal_bpw = 0.;
    }
  in
  let finish () = reap_daemon (); rm_rf dir in
  let t_start = now () in
  Fun.protect ~finally:finish (fun () ->
      (* whole rounds until the run length is spent: fresh WAL, first half
         untimed, restart, second half timed *)
      while List.length r.lats < min_repeats || now () -. t_start < opts.seconds do
        rm_rf wal;
        rm_rf backup;
        (* reference state: the latest-stamped tuple each entity has
           received; which entities the current daemon has resolved; which
           have been written since their last read *)
        let best = Array.make n_ent None in
        let live = Array.make n_ent false and dirty = Array.make n_ent false in
        let last_unresolved = Array.make n_ent 0 in
        let values = ref 0 in
        let lat = Array.make n_timed 0. in
        let d = ref (fst (start_daemon opts ~dir ~n_entities:n_ent)) in
        let restart () =
          let d', dt = start_daemon opts ~dir ~n_entities:n_ent in
          d := d';
          Array.fill live 0 n_ent false;
          dt
        in
        let check_resolve (o : op) reference reply ~timed =
          let j = parse_json reply in
          if member "ok" j <> Bool true then incr failed
          else begin
            if member "valid" j <> Bool true then
              raise (Wrong (labels.(o.lid) ^ ": judged invalid"));
            let res = member "resolved" j in
            let unresolved = ref 0 in
            for a = 0 to arity - 1 do
              match member (Schema.name schema a) res with
              | Null -> incr unresolved
              | v ->
                  let v = value_of_json v in
                  let v = if !tamper_pending then tamper entities.(o.lid) a v else v in
                  check_value ~label:labels.(o.lid) ~reference a v;
                  if timed then incr values
            done;
            last_unresolved.(o.lid) <- !unresolved
          end
        in
        (* [send lo hi ~timed] streams ops [lo, hi); reads are checked
           after the phase, against the reference captured at send time *)
        let send lo hi ~timed =
          let reads = ref [] in
          for i = lo to hi - 1 do
            let o = ops.(i) in
            if timed && opts.trace && i mod 16 = 0 then begin
              let t0 = now () in
              let reply = request !d.conn "PING" in
              r.pings <- (now () -. t0) :: r.pings;
              if member "ok" (parse_json reply) <> Bool true then failwith "PING failed"
            end;
            incr attempted;
            (match (o.arrival, best.(o.lid)) with
            | Some (s, _), Some (b, _) when s <= b -> ()
            | Some a, _ -> best.(o.lid) <- Some a
            | None, _ -> ());
            if timed then
              classes.(i - half) <-
                (match o.kind with
                | Open -> "open"
                | Ingest -> "ingest"
                | Order -> "order"
                | Resolve when not live.(o.lid) -> "first"
                | Resolve when dirty.(o.lid) -> "extend"
                | Resolve -> "memo");
            let t0 = now () in
            let reply = request !d.conn o.line in
            if timed then lat.(i - half) <- now () -. t0;
            match o.kind with
            | Resolve ->
                live.(o.lid) <- true;
                dirty.(o.lid) <- false;
                reads := (o, snd (Option.get best.(o.lid)), reply) :: !reads
            | Open | Ingest | Order ->
                dirty.(o.lid) <- true;
                if not (String.starts_with ~prefix:{|{"ok":true|} reply) then incr failed
          done;
          List.iter (fun (o, reference, reply) -> check_resolve o reference reply ~timed)
            (List.rev !reads)
        in
        send 0 half ~timed:false;
        stop_daemon !d;
        (* recovery from the same on-disk state, five times on the first
           round: restore the WAL directory before each restart *)
        let samples =
          if r.lats = [] then begin
            copy_dir wal backup;
            List.init 5 (fun k ->
                if k > 0 then begin
                  stop_daemon !d;
                  rm_rf wal;
                  copy_dir backup wal
                end;
                restart ())
          end
          else [ restart () ]
        in
        if r.lats = [] then r.setup <- median samples;
        send half n_ops ~timed:true;
        r.lats <- lat :: r.lats;
        r.stats <- parse_json (request !d.conn "STATS");
        r.health <- parse_json (request !d.conn "HEALTH");
        r.rss <- peak_rss_mb (string_of_int !d.pid) :: r.rss;
        r.wal_bpw <- wal_bytes_per_write wal;
        stop_daemon !d;
        r.values <- !values;
        r.unresolved <- Array.fold_left ( + ) 0 last_unresolved
      done);
  (* each request's median round trip over the rounds: a burst that
     slows one round does not move the figures *)
  let med = Array.init n_timed (fun i -> median (List.map (fun a -> a.(i)) r.lats)) in
  let of_class cs =
    List.filteri (fun i _ -> List.mem classes.(i) cs) (Array.to_list med)
  in
  let p50 cs = 1000. *. median (of_class cs) in
  let p99 cs = 1000. *. percentile (of_class cs) 0.99 in
  let writes = [ "open"; "ingest"; "order" ] and resolves = [ "first"; "extend"; "memo" ] in
  let ops_per_s = float_of_int n_timed /. Array.fold_left ( +. ) 0. med in
  let resolve_p50 = p50 resolves in
  let e2e =
    [
      m "setup_s" "s" r.setup;
      m "peak_rss_mb" "MiB" (median r.rss);
      m "ops_per_s" "1/s" ops_per_s;
      m "latency_ms" "ms" resolve_p50;
      m "values_resolved" "count" (float_of_int r.values);
      m "user_rounds" "count" (float_of_int r.unresolved);
    ]
  in
  let st = r.stats and recov = member "recovery" r.health in
  let created = num "created" st in
  let layers =
    [
      m "encode.template_hits" "count" (num "template_hits" st);
      m "encode.instantiations" "count" (num "instantiations" st);
      m "sat.conflicts" "count" (num "sat_conflicts" st);
      m "sat.subsumed" "count" (num "sat_subsumed" st);
      m "sat.simplify_ms" "ms" (if created = 0. then 0. else num "sat_simplify_ms" st /. created);
      m "daemon.ping_p50_ms" "ms" (1000. *. median r.pings);
      m "daemon.open_p50_ms" "ms" (p50 [ "open" ]);
      m "daemon.ingest_p50_ms" "ms" (p50 [ "ingest" ]);
      m "daemon.order_p50_ms" "ms" (p50 [ "order" ]);
      m "daemon.write_p50_ms" "ms" (p50 writes);
      m "daemon.write_p99_ms" "ms" (p99 writes);
      m "session.first_resolve_p50_ms" "ms" (p50 [ "first" ]);
      m "session.extend_resolve_p50_ms" "ms" (p50 [ "extend" ]);
      m "session.memo_resolve_p50_ms" "ms" (p50 [ "memo" ]);
      m "session.resolve_p99_ms" "ms" (p99 resolves);
      m "session.created" "count" created;
      m "session.delta_extensions" "count" (num "delta_extensions" st);
      m "session.rebuilds" "count" (num "rebuilds" st);
      m "session.solvers_built" "count" (num "solvers_built" st);
      m "durable.recovery_ms" "ms" (num "recovery_ms" recov);
      m "durable.records_replayed" "count" (num "wal_records_replayed" recov);
      m "durable.wal_bytes_per_write" "B" r.wal_bpw;
      m "durable.snapshots" "count" (num "snapshots" st);
      m "trace.ops_per_s" "1/s" ops_per_s;
      m "trace.latency_ms" "ms" resolve_p50;
    ]
  in
  let detail =
    Printf.sprintf
      "{\"rounds\": %d, \"entities\": %d, \"requests\": %d, \"timed_requests_per_round\": %d, \
       \"round_timed_s\": [%s], \"resolve_p99_ms\": %s, \"write_p50_ms\": %s, \
       \"timed_requests_by_class\": {%s}}"
      (List.length r.lats) n_ent n_ops n_timed
      (String.concat ", "
         (List.rev_map (fun a -> jfloat (Array.fold_left ( +. ) 0. a)) r.lats))
      (jfloat (p99 resolves)) (jfloat (p50 writes))
      (String.concat ", "
         (List.map
            (fun cls -> Printf.sprintf "%S: %d" cls (List.length (of_class [ cls ])))
            [ "open"; "ingest"; "order"; "first"; "extend"; "memo" ]))
  in
  (e2e, layers, detail)

(* ---- main ---- *)

(* The metric names and units, in BENCHMARK.json's order: [end_to_end]
   for an untraced run, [per_layer] for a traced one. *)
let declared ~trace =
  let bench = parse_json (read_file "BENCHMARK.json") in
  match member (if trace then "per_layer" else "end_to_end") bench with
  | Arr l ->
      List.map
        (fun x ->
          match (member "name" x, member "unit" x) with
          | Str n, Str u -> (n, u)
          | _ -> failwith "BENCHMARK.json: a metric without name or unit")
        l
  | _ -> failwith "BENCHMARK.json: no metric list"

(* A workload's figures in the declared order. Every figure must be
   declared; a per-layer metric the workload does not exercise reads 0. *)
let in_declared_order ~trace figures =
  let names = declared ~trace in
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name names) then failwith ("undeclared metric " ^ x.name))
    figures;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) figures with
      | Some x -> x
      | None when trace -> m name unit_ 0.
      | None -> failwith ("no figure for " ^ name))
    names

let () =
  let opts = parse_opts () in
  ignore (declared ~trace:opts.trace);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* a hung daemon must not hang the run *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> failwith "watchdog: run too long"));
  ignore (Unix.alarm (int_of_float opts.seconds + 120));
  let loop_before = arith_loop_s () in
  let outcome =
    try
      Ok
        ((match opts.workload with "batch" -> batch | "deep" -> deep | _ -> stream) opts)
    with
    | Wrong msg -> Error msg
    | e ->
        reap_daemon ();
        Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
        exit 2
  in
  let loop_after = arith_loop_s () in
  let correct, metrics, detail =
    match outcome with
    | Ok (e2e, layers, detail) ->
        (true, in_declared_order ~trace:opts.trace (if opts.trace then layers else e2e), detail)
    | Error msg ->
        Printf.eprintf "perfbench: WRONG ANSWER: %s\n" msg;
        (false, [], "{}")
  in
  Printf.printf
    "{\"record\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \"size\": %S, \
     \"host\": {\"cores\": %d, \"cpus_used\": %d, \"ocaml\": %S, \"git_rev\": %S, \"arith_loop_before_s\": %s, \
     \"arith_loop_after_s\": %s}, \"detail\": %s}}\n"
    opts.workload opts.seed (jfloat opts.seconds) opts.trace
    (if opts.tiny then "tiny" else "full")
    (host_cores ()) (Domain.recommended_domain_count ()) Sys.ocaml_version opts.git_rev (jfloat loop_before)
    (jfloat loop_after) detail;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct !attempted !failed (jmetrics metrics);
  exit (if correct then 0 else 1)
