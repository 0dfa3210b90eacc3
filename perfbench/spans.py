"""Per-layer spans recorded from outside the program.

The tracer replaces the module attributes through which one layer calls the
next (``cli.run_experiment``, ``sweeps.key_rate``, ``channel.key_rate``,
``keyrate.build_state`` ...) with timing wrappers, so the program's own code
is unchanged.  Every span adds its duration to its parent's child time; a
layer's self time is its spans' durations minus their child spans.  Summed
over all layers, self times add up to the time of the root spans, which is
how the traced run accounts for the untraced wall time.

Spans are kept on one stack, so the traced program must run single-threaded
(the benchmark passes ``--threads 1``).  A name that no longer exists is not
patched and its layer is reported as absent.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter, defaultdict

clock = time.process_time


class Tracer:
    """Spans and counters of one traced loop.

    ``modules`` maps module names (cli, sweeps, channel, keyrate,
    fock_states) to the imported module objects.
    """

    def __init__(self, modules):
        self._modules = modules
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.extra = Counter()
        self.first_call_s = 0.0
        self.errors = Counter()
        self.absent = set()
        self._stack = []  # child seconds of each open span
        self._patched = []  # (owner, name, original)
        self._warnings = None
        self._seen_skeletons = set()

    # -- span bookkeeping --------------------------------------------------
    def _span(self, layer, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                dur = clock() - t0
                child = stack.pop()
                self.self_s[layer] += dur - child
                self.calls[layer] += 1
                if stack:
                    stack[-1] += dur
        return wrapper

    def install(self):
        """Wrap the layer boundaries of the imported package."""
        modules = self._modules
        cli, sweeps = modules["cli"], modules["sweeps"]
        channel, keyrate = modules["channel"], modules["keyrate"]
        wraps = (
            (cli, "main", lambda f: self._span("cli", f)),
            (cli, "emit_csv", lambda f: self._span("emit_csv", f)),
            (cli, "run_experiment", lambda f: self._span("sweeps", f)),
            (sweeps, "weibull_params", lambda f: self._span("weibull", f)),
            (sweeps, "average_key_rates", self._average),
            (sweeps, "key_rate", lambda f: self._span("keyrate", f)),
            (channel, "key_rate", self._channel_key_rate),
            (keyrate, "key_rate_from_summary", lambda f: self._span("bound", f)),
            (keyrate, "covariance_summary", lambda f: self._span("moments", f)),
            (keyrate, "build_state", self._build_state),
        )
        for owner, name, make in wraps:
            original = getattr(owner, name, None)
            if original is None:
                self.absent.add(f"{owner.__name__}.{name}")
                continue
            self._patched.append((owner, name, original))
            setattr(owner, name, make(original))

        truncation = getattr(modules["fock_states"], "TruncationWarning", None)
        if truncation is None:
            self.absent.add("cvqkd_ps.fock_states.TruncationWarning")
        else:
            # restored by uninstall(); "always" so that repeats are counted
            self._warnings = warnings.catch_warnings()
            self._warnings.__enter__()
            warnings.simplefilter("always", truncation)
            shown = warnings.showwarning

            def showwarning(message, category, *args, **kwargs):
                if issubclass(category, truncation):
                    self.extra["truncation_warnings"] += 1
                    return
                shown(message, category, *args, **kwargs)

            warnings.showwarning = showwarning

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None

    def reset(self):
        """Forget everything recorded so far except first-call times."""
        self.self_s.clear()
        self.calls.clear()
        self.extra.clear()
        self.errors.clear()

    # -- layer-specific wrappers -------------------------------------------
    def _average(self, fn):
        span = self._span("channel", fn)

        def wrapper(cfg, model, quad, *args, **kwargs):
            self.extra["nodes"] += quad.node_count
            return span(cfg, model, quad, *args, **kwargs)
        return wrapper

    def _channel_key_rate(self, fn):
        span = self._span("keyrate", fn)

        def wrapper(*args, **kwargs):
            self.extra["channel_key_rate_calls"] += 1
            return span(*args, **kwargs)
        return wrapper

    def _build_state(self, fn):
        span = self._span("fock_states", fn)

        def wrapper(cfg, *args, **kwargs):
            key = (cfg.scheme, cfg.trunc_n)
            if key in self._seen_skeletons:
                state = span(cfg, *args, **kwargs)
            else:
                t0 = clock()
                state = span(cfg, *args, **kwargs)
                self.first_call_s += clock() - t0
                self._seen_skeletons.add(key)
            kets = getattr(state, "kets", None)
            if kets is not None:
                self.extra["kets"] += len(kets)
            return state
        return wrapper

    # -- report --------------------------------------------------------------
    def metrics(self) -> dict:
        """The per-layer metrics; a layer whose names are listed in
        ``self.absent`` reads 0."""
        s, c, x = self.self_s, self.calls, self.extra
        averages = c["channel"]
        channel_calls = x["channel_key_rate_calls"]
        # keyrate self time excludes the bound, which is reported on its own
        return {
            "fock_states.calls": (c["fock_states"], "count"),
            "fock_states.self_s": (s["fock_states"], "s"),
            "fock_states.kets_per_state": (x["kets"] / c["fock_states"]
                                           if c["fock_states"] else 0.0, "count"),
            "fock_states.first_call_s": (self.first_call_s, "s"),
            "fock_states.truncation_warnings": (x["truncation_warnings"], "count"),
            "moments.calls": (c["moments"], "count"),
            "moments.self_s": (s["moments"], "s"),
            "keyrate.calls": (c["keyrate"], "count"),
            "keyrate.self_s": (s["keyrate"], "s"),
            "keyrate.bound_s": (s["bound"], "s"),
            "keyrate.errors": (self.errors["keyrate"], "count"),
            "channel.averages": (averages, "count"),
            "channel.key_rate_calls": (channel_calls, "count"),
            "channel.calls_per_average": (channel_calls / averages if averages else 0.0,
                                          "count"),
            "channel.self_s": (s["channel"], "s"),
            "channel.weibull_s": (s["weibull"], "s"),
            "channel.node_efficiency": (x["nodes"] / channel_calls if channel_calls else 0.0,
                                        "ratio"),
            "sweeps.self_s": (s["sweeps"], "s"),
            "sweeps.emit_csv_s": (s["emit_csv"], "s"),
            "cli.requests": (c["cli"], "count"),
            "cli.self_s": (s["cli"], "s"),
        }

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
