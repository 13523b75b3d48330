(** Malicious-peer oracle: the adversarial counterpart of the
    differential {!Oracle}.

    Each case replays a recorded honest transcript shape under seeded
    structured wire mutations ({!Secyan_net.Chaos}'s [Indexed] layout)
    and holds the honest party to the Byzantine-hardening invariant:

    {e terminate, within the deadline and within bounded resident
    memory, with either the correct output or a typed
    [Protocol_violation] / [Transport_error] — never a crash, never a
    hang, never a silently accepted wrong answer.}

    A case runs three executions over the in-process framed transport:
    an honest reference (which also measures the transcript length the
    mutation schedule is drawn against), the mutated run, and — for a
    sampled subset of violation cases — a checkpointed mutated run
    followed by an honest resume that must reproduce the reference
    results and tally exactly (the PR 8 cancel-at-boundary discipline
    applied to protocol violations). *)

open Secyan_crypto
open Secyan_relational

type outcome =
  | Correct  (** mutation was harmless or recovered; output matches *)
  | Violation  (** typed [Protocol_violation] *)
  | Transport_fault  (** typed [Transport_error] / [Resume_mismatch] *)
  | Deadline_hit  (** ran past its deadline or memory budget — a failure *)
  | Wrong_answer  (** terminated with output differing from the reference *)
  | Crash  (** untyped exception escape — a failure *)

let outcome_name = function
  | Correct -> "correct"
  | Violation -> "protocol-violation"
  | Transport_fault -> "transport-fault"
  | Deadline_hit -> "deadline-hit"
  | Wrong_answer -> "wrong-answer"
  | Crash -> "crash"

type case_report = {
  case : int;
  spec : string;  (** scheduled mutations, replayable via [--malicious] *)
  injected : string;  (** mutations that actually fired *)
  outcome : outcome;
  detail : string;
  resume_checked : bool;  (** checkpoint-resume bit-identity verified *)
  ok : bool;
}

type stats = {
  cases : int;
  correct : int;
  violations : int;
  transport_faults : int;
  resumes_checked : int;
  failures : case_report list;
  seconds : float;
}

let ctx_seed (t : Gen.instance) =
  Int64.add t.Gen.seed (Int64.mul (Int64.of_int (t.Gen.case + 1)) 0x9E37_79B9L)

(* Count the frames an honest run pushes through the raw transport — the
   transcript length mutation indices are drawn against — and produce the
   reference content and tally the mutated run is held to. *)
let reference_run (t : Gen.instance) =
  let q = t.Gen.query in
  let sent = ref 0 in
  let raw = Secyan_net.Transport.inproc () in
  let counting =
    {
      raw with
      Secyan_net.Transport.send_frame =
        (fun dir frame ->
          incr sent;
          raw.Secyan_net.Transport.send_frame dir frame);
    }
  in
  let transport = Secyan_net.Resilient.create counting in
  let ctx =
    Context.create ~bits:(Semiring.bits q.Secyan.Query.semiring) ~transport
      ~seed:(ctx_seed t) ()
  in
  let revealed, r = Secyan.Secure_yannakakis.run ctx q in
  Context.close_transport ctx;
  (Oracle.content q revealed, r.Secyan.Secure_yannakakis.tally, !sent)

let derive_spec ~rng ~transcript_len =
  let n = 1 + Secyan_net.Rng.below rng 3 in
  List.init n (fun _ ->
      let m =
        List.nth Secyan_net.Chaos.byzantine
          (Secyan_net.Rng.below rng (List.length Secyan_net.Chaos.byzantine))
      in
      (m, Secyan_net.Rng.below rng (max 1 transcript_len)))

(* One mutated execution; returns the classified outcome. [checkpoint]
   attaches a sink so a violation leaves a resumable snapshot behind. *)
let mutated_run ?checkpoint ~deadline_s (t : Gen.instance) spec =
  let q = t.Gen.query in
  let raw, injected =
    Secyan_net.Chaos.wrap ~seed:(ctx_seed t) ~layout:Indexed ~spec
      (Secyan_net.Transport.inproc ())
  in
  let transport = Secyan_net.Resilient.create raw in
  let cancel = Secyan_deadline.create ~timeout_s:deadline_s ~memory_budget_mb:2048. () in
  let ctx =
    Context.create ~bits:(Semiring.bits q.Secyan.Query.semiring) ~transport ?checkpoint
      ~cancel ~seed:(ctx_seed t) ()
  in
  let finish r =
    Context.close_transport ctx;
    (r, injected ())
  in
  match Secyan.Secure_yannakakis.run ctx q with
  | revealed, r -> finish (`Done (Oracle.content q revealed, r.Secyan.Secure_yannakakis.tally))
  | exception Protocol_schema.Protocol_violation { phase; expected; got; offset } ->
      finish
        (`Violation
          (Printf.sprintf "phase %s expected %s got %s at offset %d" phase expected got
             offset))
  | exception Secyan_net.Resilient.Transport_error { kind; detail; _ } ->
      finish
        (`Transport
          (Printf.sprintf "%s (%s)" (Secyan_net.Resilient.error_kind_name kind) detail))
  | exception Secyan_net.Resilient.Resume_mismatch _ -> finish (`Transport "resume mismatch")
  | exception Checkpoint.Checkpoint_error { kind; _ } ->
      finish (`Transport (Printf.sprintf "checkpoint: %s" (Checkpoint.error_kind_name kind)))
  | exception Secyan_deadline.Cancelled { reason; where } ->
      finish
        (`Deadline (Printf.sprintf "%s at %s" (Secyan_deadline.reason_to_string reason) where))
  | exception e -> finish (`Crash (Printexc.to_string e))

(* Honest resume from whatever checkpoint the violated run left behind;
   must reproduce the reference content and tally exactly. *)
let resume_matches ~dir (t : Gen.instance) (expected_content, expected_tally) =
  let q = t.Gen.query in
  let transport = Secyan_net.Resilient.create (Secyan_net.Transport.inproc ()) in
  let ctx =
    Context.create ~bits:(Semiring.bits q.Secyan.Query.semiring) ~transport
      ~checkpoint:(Checkpoint.sink ~dir ()) ~seed:(ctx_seed t) ()
  in
  let revealed, r = Secyan.Secure_yannakakis.run ~resume:true ctx q in
  Context.close_transport ctx;
  let got = Oracle.content q revealed in
  if got <> expected_content then Error "resumed content diverges from reference"
  else if not (Comm.equal r.Secyan.Secure_yannakakis.tally expected_tally) then
    Error "resumed tally diverges from reference"
  else Ok ()

(* Scratch checkpoint directories, cleaned up best-effort. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    let rec go () =
      incr n;
      let d =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "secyan-peer-fuzz-%d-%d" (Unix.getpid ()) !n)
      in
      match Unix.mkdir d 0o700 with
      | () -> d
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go ()
    in
    go ()

let remove_dir d =
  match Sys.readdir d with
  | files ->
      Array.iter (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ()) files;
      (try Unix.rmdir d with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

let run_case ?(deadline_s = 10.) ?(check_resume = false) ~seed ~case () =
  Value.reset_dummies ();
  let t = Gen.generate ~seed ~case in
  let reference_content, reference_tally, transcript_len = reference_run t in
  let rng = Secyan_net.Rng.create (Int64.logxor (ctx_seed t) 0x5EED_F00DL) in
  let spec = derive_spec ~rng ~transcript_len in
  let spec_s = Secyan_net.Chaos.spec_to_string ~layout:Indexed spec in
  let finish ?(resume_checked = false) ?(detail = "") ~injected ~ok outcome =
    { case; spec = spec_s;
      injected = Secyan_net.Chaos.spec_to_string ~layout:Indexed injected; outcome; detail;
      resume_checked; ok }
  in
  match mutated_run ~deadline_s t spec with
  | `Done (content, tally), injected ->
      if content = reference_content && Comm.equal tally reference_tally then
        finish Correct ~injected ~ok:true
      else
        finish Wrong_answer ~injected ~ok:false
          ~detail:"terminated with output or tally diverging from the honest reference"
  | `Transport d, injected -> finish Transport_fault ~injected ~ok:true ~detail:d
  | `Deadline d, injected -> finish Deadline_hit ~injected ~ok:false ~detail:d
  | `Crash d, injected -> finish Crash ~injected ~ok:false ~detail:d
  | `Violation d, injected ->
      if not check_resume then finish Violation ~injected ~ok:true ~detail:d
      else begin
        (* Repeat the mutated run with a checkpoint sink attached, then
           resume honestly from whatever snapshot the violation left
           behind: results and tally must be bit-identical to the
           reference. *)
        let dir = fresh_dir () in
        let verdict =
          match
            mutated_run ~checkpoint:(Checkpoint.sink ~dir ()) ~deadline_s t spec
          with
          | `Violation _, _ | `Transport _, _ -> (
              match resume_matches ~dir t (reference_content, reference_tally) with
              | Ok () -> finish Violation ~injected ~ok:true ~detail:d ~resume_checked:true
              | Error why ->
                  finish Violation ~injected ~ok:false ~resume_checked:true
                    ~detail:(Printf.sprintf "%s; %s" d why)
              | exception e ->
                  finish Violation ~injected ~ok:false ~resume_checked:true
                    ~detail:
                      (Printf.sprintf "%s; resume raised %s" d (Printexc.to_string e)))
          | `Done _, _ | `Deadline _, _ | `Crash _, _ ->
              (* The checkpointed repeat took a different path (sink
                 traffic shifts nothing — mutations key on message index,
                 which checkpointing does not change — so this indicates
                 nondeterminism worth flagging). *)
              finish Violation ~injected ~ok:false ~resume_checked:true
                ~detail:(d ^ "; checkpointed repeat diverged from the plain mutated run")
        in
        remove_dir dir;
        verdict
      end

let campaign ?(deadline_s = 10.) ?(resume_every = 25) ?progress ~seed ~cases () =
  let t0 = Unix.gettimeofday () in
  let correct = ref 0 in
  let violations = ref 0 in
  let transport_faults = ref 0 in
  let resumes = ref 0 in
  let failures = ref [] in
  for case = 0 to cases - 1 do
    let check_resume = resume_every > 0 && case mod resume_every = 0 in
    let r = run_case ~deadline_s ~check_resume ~seed ~case () in
    (match r.outcome with
    | Correct -> incr correct
    | Violation -> incr violations
    | Transport_fault -> incr transport_faults
    | Deadline_hit | Wrong_answer | Crash -> ());
    if r.resume_checked then incr resumes;
    if not r.ok then failures := r :: !failures;
    match progress with Some f -> f case | None -> ()
  done;
  {
    cases;
    correct = !correct;
    violations = !violations;
    transport_faults = !transport_faults;
    resumes_checked = !resumes;
    failures = List.rev !failures;
    seconds = Unix.gettimeofday () -. t0;
  }
