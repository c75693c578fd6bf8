"""Outside-in tracer for moco4d: wraps the package's public functions from
outside the package, keeps spans in memory, and reports self times.

Nothing in `moco4d` is edited. `Tracer.patch` replaces a function in every
`moco4d` module namespace that binds it (``train.loss_terms`` and
``losses.loss_terms`` are the same function bound twice) and `Tracer.restore`
puts every original back. Autodiff primitives get a forward span, and the
`.vjp` closure on each Tensor they return is wrapped so the backward pass
records a matching vjp span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Primitives that get their own span name; every other tape-building
# primitive in autodiff is reported under "pointwise".
NAMED_PRIMITIVES = ("conv3d", "interp_resize", "warp", "box_sum")
POINTWISE_PRIMITIVES = ("add", "mul", "div", "square", "sum_all", "mean_all",
                        "sigmoid", "tanh", "leaky_relu", "reshape",
                        "concat_channels", "stack_frames", "select_frame",
                        "matvec", "forward_diff")

# (module, function, span name): layer entry points traced as one span each
LAYER_ENTRY_POINTS = (
    ("network", "forward_fields", "network.forward_fields"),
    ("network", "estimate_displacements", "network.estimate_displacements"),
    ("convlstm", "convlstm_step", "convlstm.step"),
    ("losses", "loss_terms", "losses.loss_terms"),
    ("warping", "resample_field", "warping.resample_field"),
    ("train", "adam_step", "train.adam_step"),
    ("train", "preprocess", "train.preprocess"),
    ("patlak", "parametric_maps", "patlak.parametric_maps"),
    ("phantom", "endpoint_error", "phantom.endpoint_error"),
    ("phantom", "simulate_frames", "phantom.simulate_frames"),
    ("phantom", "inject_motion", "phantom.inject_motion"),
    ("metrics", "nmi", "metrics.nmi"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root span
    child_s: float = 0.0      # summed duration of direct children

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        # children of one span run one after another on a single thread,
        # so their summed duration is the part of this span they cover
        return self.duration - self.child_s


def conv_layer(kernels):
    """Layer name of a conv3d call: the kernel parameter's name up to the
    first dot ("dec4.k" -> "dec4", "scell.u_f" -> "scell")."""
    name = getattr(kernels, "name", None)
    return name.split(".", 1)[0] if name else "unnamed"


def conv_flop(x_shape, k_shape, out_shape):
    """Multiply-adds times two of one conv3d forward, from the shapes."""
    batch = x_shape[0] if len(x_shape) == 5 else 1
    cout, cin, kd, kh, kw = k_shape
    out_vox = out_shape[-1] * out_shape[-2] * out_shape[-3]
    return 2 * batch * cout * cin * kd * kh * kw * out_vox


class Tracer:
    """In-memory spans plus counters; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)

    def end(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span.end = self.clock()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration
        return span

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def self_times(self):
        """Summed self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.self_s
        return dict(out)

    def coverage(self, name):
        """Share of the time of spans called `name` that their children cover."""
        total = sum(s.duration for s in self.spans if s.name == name)
        child = sum(s.child_s for s in self.spans if s.name == name)
        return child / total if total > 0 else 0.0

    # -- patching ----------------------------------------------------------

    def patch(self, package):
        """Wrap every traced function of `package` (the imported moco4d)."""
        ad = package.autodiff
        for prim in NAMED_PRIMITIVES + POINTWISE_PRIMITIVES:
            self._replace(package, getattr(ad, prim), self._primitive(prim))
        self._replace(package, ad.backward, self._backward)
        for mod, fn, name in LAYER_ENTRY_POINTS:
            self._replace(package, getattr(getattr(package, mod), fn), self._entry(name))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _replace(self, package, original, make_wrapper):
        wrapper = make_wrapper(original)
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__
                                      or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _entry(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end()
            return traced
        return make

    def _primitive(self, prim):
        group = prim if prim in NAMED_PRIMITIVES else "pointwise"

        def make(fn):
            def traced(*args, **kwargs):
                if prim == "conv3d":
                    kernels = args[1] if len(args) > 1 else kwargs["kernels"]
                    base = f"autodiff.conv3d.{conv_layer(kernels)}"
                else:
                    base = f"autodiff.{group}"
                self.begin(base + ".fwd")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end()
                if prim == "conv3d":
                    x = args[0] if args else kwargs["x"]
                    flop = conv_flop(x.shape, kernels.shape, out.shape)
                    self.counts["conv3d.flop"] += flop
                    # the input and the kernel gradient each cost one forward
                    self._wrap_vjp(out, base + ".vjp", "conv3d.flop", 2 * flop)
                else:
                    if prim == "warp":
                        self.counts["warp.voxels"] += out.size
                    self._wrap_vjp(out, base + ".vjp")
                return out
            return traced
        return make

    def _wrap_vjp(self, out, name, counter=None, amount=0):
        vjp = out.vjp
        if vjp is None:
            return

        def traced_vjp(g):
            if counter:
                self.counts[counter] += amount
            self.begin(name)
            try:
                return vjp(g)
            finally:
                self.end()
        out.vjp = traced_vjp

    def _backward(self, fn):
        def traced(tape, loss):
            self.counts["tape.steps"] += 1
            self.counts["tape.nodes"] += len(tape.nodes)
            self.counts["tape.bytes"] += sum(n.data.nbytes for n in tape.nodes)
            self.begin("autodiff.backward")
            try:
                return fn(tape, loss)
            finally:
                self.end()
        return traced

