"""Per-layer tracing of dgalab from outside the program.

The tracer replaces public functions of the dgalab modules with wrappers.
A function that other modules import by name is patched in every dgalab
module that binds it, so each call is seen where it is made.  Every call
records a span (name, start, end, parent, thread) into a buffer of the
calling thread, kept in memory; ``write`` saves all spans at exit.  A span's
parent is the innermost open span of the same thread, and its self time is
its duration minus the durations of its direct children.

``layer_metrics`` turns the spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np
from dgalab.detectors.base import KINDS

# validate_domain is counted where the name pipeline calls it; corpora's
# file-loading validation is left out so the count stays per name handled.
VALIDATE_MODULES = ("dgalab.domains", "dgalab.dnsenv",
                    "dgalab.detectors.base", "dgalab.detectors.features")


class _Buffer:
    """Spans of one thread, as parallel integer columns."""

    def __init__(self, thread_no: int):
        self.thread = thread_no
        self.next_id = 0
        self.stack: list[int] = []
        self.cols = {c: array("q") for c in
                     ("id", "parent", "name", "start", "end", "items")}
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._names_lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._thread_no = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(next(self._thread_no))
            self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._names_lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def count(self, key: str, n: int) -> None:
        counts = self._buffer().counts
        counts[key] = counts.get(key, 0) + n

    def wrap(self, fn, name, items=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of
        (args, kwargs) giving one; ``items(args, kwargs, result)`` gives the
        work count stored with the span."""
        tracer = self
        clock = time.perf_counter_ns
        fixed = tracer.name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            sid = buf.next_id
            buf.next_id = sid + 1
            stack = buf.stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                tracer._record(buf, sid, parent, fixed, name, args, kwargs,
                               t0, t1, 0)
                raise
            t1 = clock()
            stack.pop()
            n = items(args, kwargs, result) if items is not None else 0
            tracer._record(buf, sid, parent, fixed, name, args, kwargs,
                           t0, t1, n)
            return result

        return traced

    def _record(self, buf, sid, parent, fixed, name, args, kwargs, t0, t1, n):
        nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
        cols = buf.cols
        cols["id"].append(sid)
        cols["parent"].append(parent)
        cols["name"].append(nid)
        cols["start"].append(t0)
        cols["end"].append(t1)
        cols["items"].append(n)

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, home: str, attr: str, name, items=None,
                       modules=None) -> None:
        """Patch ``home.attr`` in each dgalab module binding the same object
        (or only in ``modules``)."""
        orig = getattr(sys.modules[home], attr)
        wrapped = self.wrap(orig, name, items)
        for modname in sorted(sys.modules):
            if modules is not None and modname not in modules:
                continue
            if modname != "dgalab" and not modname.startswith("dgalab."):
                continue
            mod = sys.modules[modname]
            if getattr(mod, attr, None) is orig:
                self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name, items=None) -> None:
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, items))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------
    def spans(self) -> dict[str, np.ndarray]:
        """All spans with process-wide ids; ``self_ns`` subtracts children."""
        parts = {c: [] for c in ("id", "parent", "name", "start", "end",
                                 "items", "thread")}
        offset = 0
        for buf in list(self._buffers):
            ids = np.frombuffer(buf.cols["id"], dtype=np.int64)
            parent = np.frombuffer(buf.cols["parent"], dtype=np.int64)
            parts["id"].append(ids + offset)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for c in ("name", "start", "end", "items"):
                parts[c].append(np.frombuffer(buf.cols[c], dtype=np.int64))
            parts["thread"].append(np.full(len(ids), buf.thread, np.int64))
            offset += buf.next_id
        out = {c: (np.concatenate(v) if v else np.zeros(0, np.int64))
               for c, v in parts.items()}
        order = np.argsort(out["id"], kind="stable")
        out = {c: v[order] for c, v in out.items()}
        dur = out["end"] - out["start"]
        child = np.zeros(offset + 1, dtype=np.int64)
        has_parent = out["parent"] >= 0
        np.add.at(child, out["parent"][has_parent], dur[has_parent])
        out["self_ns"] = dur - child[out["id"]]
        return out

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for buf in list(self._buffers):
            for key, n in buf.counts.items():
                total[key] = total.get(key, 0) + n
        return total

    def write(self, path: Path, spans: dict[str, np.ndarray]) -> None:
        np.savez_compressed(path, names=np.array(self.names), **spans)


def stats_by_name(tracer: Tracer, spans) -> dict[str, dict[str, float]]:
    """calls, total and self seconds, and work items per span name."""
    out = {}
    n = len(tracer.names)
    names = spans["name"]
    calls = np.bincount(names, minlength=n)
    total = np.bincount(names, weights=spans["end"] - spans["start"],
                        minlength=n)
    own = np.bincount(names, weights=spans["self_ns"], minlength=n)
    items = np.bincount(names, weights=spans["items"], minlength=n)
    for nid, name in enumerate(tracer.names):
        out[name] = {"calls": int(calls[nid]), "total_s": total[nid] / 1e9,
                     "self_s": own[nid] / 1e9, "items": int(items[nid])}
    return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    import dgalab.cli  # noqa: F401  (imports the eager layer modules)
    from dgalab import domains, dnsenv
    from dgalab.detectors import base, fanci, forest, neural
    from dgalab.detectors import statistics, wordgraph  # noqa: F401  (lazy)

    def length(_a, _k, result):
        return len(result)

    def register_items(args, _kwargs, result):
        accepted = sum(fb.outcome for fb in result)
        detector = sum(1 for fb in result if fb.d_factor == 0)
        tracer.count("accepted", accepted)
        tracer.count("detector_rejected", detector)
        tracer.count("novelty_rejected", len(result) - accepted - detector)
        return len(result)

    def score_name(args, _kwargs):
        return f"detectors.{type(args[0]).kind}.score_many"

    def fit_name(args, kwargs):
        return f"detectors.{kwargs.get('kind', args[0] if args else '?')}.fit"

    def batch_rows(_a, _k, result):
        return int(result.tokens.shape[0])

    def scored_items(args, _kwargs, _result):
        return len(args[0])

    fn = tracer.patch_function
    fn("dgalab.corpora", "load_domains", "corpora.load_domains", length)
    fn("dgalab.corpora", "synthesize_benign", "corpora.synthesize_benign",
       length)
    for family in ("kraken", "gozi", "suppobox"):
        fn("dgalab.baselines", f"{family}_generate", f"baselines.{family}",
           length)
    fn("dgalab.domains", "validate_domain", "domains.validate_domain",
       modules=VALIDATE_MODULES)
    fn("dgalab.domains", "assemble_fqdn", "domains.assemble_fqdn")
    tracer.patch_method(domains.TokenDict, "detokenize", "domains.detokenize")
    fn("dgalab.rng", "stream", "rng.stream")
    fn("dgalab.policy", "run_batch", "policy.run_batch", batch_rows)
    fn("dgalab.policy", "grad_from_coeffs", "policy.grad_from_coeffs")
    fn("dgalab.policy", "apply_grads", "policy.apply_grads")
    for attr in ("stack_step", "stack_forward", "stack_backward"):
        fn("dgalab.recurrent", attr, f"recurrent.{attr}")
    fn("dgalab.training", "train", "training.train",
       lambda _a, _k, result: len(result.curve))
    fn("dgalab.training", "generate_domains", "training.generate_domains",
       length)
    tracer.patch_method(dnsenv.FeedbackEnv, "register_many",
                        "dnsenv.register_many", register_items)
    for cls in (base.DetectorModel, fanci.FanciDetector,
                neural.NeuralDetector):
        tracer.patch_method(cls, "score_many", score_name, length)
    fn("dgalab.detectors.base", "train_detector", fit_name)
    fn("dgalab.detectors.distances", "edit_distance",
       "detectors.distances.edit_distance")
    fn("dgalab.detectors.features", "extract_many",
       "detectors.features.extract_many", length)
    fn("dgalab.detectors.forest", "fit_forest", "detectors.forest.fit_forest")
    tracer.patch_method(forest.RandomForest, "predict",
                        "detectors.forest.predict", length)
    fn("dgalab.evaluation", "roc_auc", "evaluation.roc_auc", scored_items)
    fn("dgalab.evaluation", "detection_auc", "evaluation.detection_auc")
    fn("dgalab.evaluation", "run_matrix", "evaluation.run_matrix")
    for attr in ("save_policy", "save_blobs", "load_policy", "load_blobs"):
        fn("dgalab.checkpoint", attr, f"checkpoint.{attr}")


def layer_metrics(stats, counts) -> dict[str, float]:
    """The per-layer metrics a traced run reports (zero when unused)."""

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def per_call(name, key="total_s", scale=1e6):
        return per(get(name, key), get(name, "calls"), scale)

    def per_item(name, key="total_s", scale=1e6):
        return per(get(name, key), get(name, "items"), scale)

    m = {
        "cli.main.calls": get("cli.main", "calls"),
        "cli.self_ms_per_call": per_call("cli.main", "self_s", 1e3),
        "corpora.load_domains.us_per_name": per_item("corpora.load_domains"),
    }
    for family in ("kraken", "gozi", "suppobox"):
        m[f"baselines.{family}.us_per_name"] = per_item(f"baselines.{family}")
    for verb in ("save", "load"):
        names = (f"checkpoint.{verb}_policy", f"checkpoint.{verb}_blobs")
        m[f"checkpoint.{verb}_ms"] = per(
            sum(get(n, "total_s") for n in names),
            sum(get(n, "calls") for n in names), 1e3)
    validate = get("domains.validate_domain", "calls")
    assembled = get("domains.assemble_fqdn", "calls")
    m.update({
        "rng.stream.calls": get("rng.stream", "calls"),
        "rng.stream.us_per_call": per_call("rng.stream"),
        "domains.detokenize.us_per_name": per_call("domains.detokenize"),
        "domains.assemble_fqdn.us_per_name": per_call("domains.assemble_fqdn"),
        "domains.validate_calls_per_name": per(validate, assembled),
        "policy.run_batch.calls": get("policy.run_batch", "calls"),
        "policy.run_batch.rows": get("policy.run_batch", "items"),
        "policy.run_batch.us_per_row": per_item("policy.run_batch", "self_s"),
        "policy.grad.ms_per_step": per(
            get("policy.grad_from_coeffs", "total_s")
            + get("policy.apply_grads", "total_s"),
            get("policy.grad_from_coeffs", "calls"), 1e3),
        "recurrent.stack_step.calls": get("recurrent.stack_step", "calls"),
        "recurrent.stack_step.us_per_call": per_call("recurrent.stack_step",
                                                     "self_s"),
        "recurrent.stack_backward.ms_per_call": per_call(
            "recurrent.stack_backward", "self_s", 1e3),
        "training.self_ms_per_epoch": per_item("training.train", "self_s",
                                               1e3),
    })
    names = get("dnsenv.register_many", "items")
    m.update({
        "dnsenv.register_many.calls": get("dnsenv.register_many", "calls"),
        "dnsenv.names": names,
        "dnsenv.self_us_per_name": per_item("dnsenv.register_many", "self_s"),
        "dnsenv.accept_ratio": per(counts.get("accepted", 0), names),
        "dnsenv.detector_reject_ratio": per(
            counts.get("detector_rejected", 0), names),
        "dnsenv.novelty_reject_ratio": per(
            counts.get("novelty_rejected", 0), names),
    })
    for kind in KINDS:
        score = f"detectors.{kind}.score_many"
        m[f"detectors.{kind}.score_us_per_name"] = per_item(score)
        m[f"detectors.{kind}.score_names"] = get(score, "items")
        m[f"detectors.{kind}.fit_s"] = get(f"detectors.{kind}.fit", "total_s")
    m.update({
        "detectors.distances.edit_distance.calls":
            get("detectors.distances.edit_distance", "calls"),
        "detectors.distances.edit_distance.us_per_call":
            per_call("detectors.distances.edit_distance"),
        "detectors.features.extract_us_per_name":
            per_item("detectors.features.extract_many"),
        "detectors.forest.fit_s": get("detectors.forest.fit_forest",
                                      "total_s"),
        "detectors.forest.predict_us_per_name":
            per_item("detectors.forest.predict"),
        "evaluation.roc_auc.us_per_item": per_item("evaluation.roc_auc"),
        "evaluation.detection_auc.calls":
            get("evaluation.detection_auc", "calls"),
    })
    return m
