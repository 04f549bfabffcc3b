"""End-to-end Q-network variants sharing one topology.

The five variants of `VARIANTS` share one conv / embedding / cross-fusion /
head stack and differ only in encoder, decoder and membership kind.  The
non-spiking baseline has neither encoder nor decoder: ReLU activations, one
"time step", raw images in.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fuzzy, snn
from .analysis import cost_model
from .autodiff import Tensor
from .checkpoint import CheckpointFormatError, load_records, save_records
from .highway import ACTION_NAMES

N_ACTIONS = len(ACTION_NAMES)

# variant name -> (encoder, decoder, membership kind), in ablation order
VARIANTS = {
    "fuzzy": ("fuzzy", "neural", fuzzy.TRIANGULAR),         # the proposal
    "fuzzy_ws": ("fuzzy", "weighted_sum", fuzzy.TRIANGULAR),
    "nonspiking": ("none", "none", fuzzy.TRIANGULAR),       # ReLU baseline
    "gaussian": ("fuzzy", "neural", fuzzy.GAUSSIAN),
    "rate": ("rate", "weighted_sum", fuzzy.TRIANGULAR),     # spiking baseline
}


@dataclass
class NetworkConfig:
    variant: str = "fuzzy"
    n_membership: int = 3            # N functions per modality
    m_population: int = 5            # M output neurons per action
    t_steps: int = 5
    surrogate_alpha: float = 2.0
    obs_hw: tuple[int, int] = (32, 32)
    conv_channels: tuple[int, ...] = (8, 16, 16)
    conv_kernel: int = 3
    conv_stride: int = 2
    conv_padding: int = 1
    c_emb: int = 32
    n_heads: int = 8
    d_ff: int = 128
    fc_hidden: int = 512
    dec_hidden: int = 64
    tau_m: float = 2.0
    theta_pos: float = 1.0
    theta_neg: float = -4.0
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"choose from {sorted(VARIANTS)}")
        small = [name for name in (
            "n_membership", "m_population", "t_steps", "obs_hw",
            "conv_channels", "conv_kernel", "conv_stride", "c_emb", "n_heads",
            "d_ff", "fc_hidden", "dec_hidden")
            if min(np.ravel(getattr(self, name)), default=0) < 1]
        if small:
            raise ValueError(f"sizes must be at least 1: {', '.join(small)}")
        # a NaN or infinite value, or one of the wrong sign, silences or
        # saturates the network
        nonpositive = [name for name in ("tau_m", "surrogate_alpha",
                                         "theta_pos")
                       if not 0 < getattr(self, name) < math.inf]
        if nonpositive:
            raise ValueError(f"must be positive and finite: "
                             f"{', '.join(nonpositive)}")
        if not -math.inf < self.theta_neg < 0:
            raise ValueError(f"theta_neg must be negative and finite, got "
                             f"{self.theta_neg}")
        if self.c_emb % self.n_heads:
            raise ValueError(f"c_emb {self.c_emb} does not split into "
                             f"n_heads {self.n_heads} equal heads")
        self.token_grid()

    # the variant's components, looked up in the table
    encoder = property(lambda self: VARIANTS[self.variant][0])
    decoder = property(lambda self: VARIANTS[self.variant][1])
    membership_kind = property(lambda self: VARIANTS[self.variant][2])

    @property
    def spiking(self) -> bool:
        return self.encoder != "none"

    @property
    def effective_t(self) -> int:
        return self.t_steps if self.spiking else 1

    def conv_input_channels(self) -> int:
        """Each modality is one-channel; the fuzzy encoder expands it to N."""
        return self.n_membership if self.encoder == "fuzzy" else 1

    def token_grid(self) -> tuple[int, int]:
        h, w = self.obs_hw
        for _ in self.conv_channels:
            h, w = ad.conv2d_extents(h, w, self.conv_kernel, self.conv_stride,
                                     self.conv_padding)
        return h, w


SHARED_LAYERS = (snn.ConvLifBlock, snn.Embedding, snn.CrossFusionLayer,
                 snn.FcLifHead)


def _named_parameters(layers) -> dict[str, Tensor]:
    """'<prefix>.<name>' for each layer's parameters; a bare Tensor in the
    list is named by its prefix alone."""
    out: dict[str, Tensor] = {}
    for prefix, layer in layers:
        if isinstance(layer, Tensor):
            out[prefix] = layer
            continue
        for name, p in layer.named_parameters().items():
            out[f"{prefix}.{name}"] = p
    return out


def load_parameters(params: dict[str, Tensor], records: dict,
                    prefix: str = "") -> None:
    """Set each parameter from the checkpoint record `prefix + name`."""
    for name, p in params.items():
        name = prefix + name
        if name not in records:
            raise CheckpointFormatError(f"checkpoint missing record {name!r}")
        if records[name].shape != p.value.shape:
            raise CheckpointFormatError(
                f"record {name!r} has shape {records[name].shape}, "
                f"parameter {p.value.shape}")
        p.value = records[name]


@dataclass
class QVector:
    """Action values of one observation."""
    q: np.ndarray


class QNetwork(ad.Module):
    """Two modality branches fused by spiking cross-attention, with the
    encoder and decoder of the config's variant."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self._encode_seed = int(rng.integers(2 ** 31))
        # the binary rule every population shares; the cross-fusion layer
        # derives its ternary Q/K rule from it
        neuron = snn.Neuron(kind="lif" if cfg.spiking else "relu",
                            tau_m=cfg.tau_m, theta_pos=cfg.theta_pos,
                            alpha=cfg.surrogate_alpha, t_steps=cfg.effective_t)

        self.banks: dict[str, fuzzy.MembershipBank] = (
            {mod: fuzzy.MembershipBank(cfg.membership_kind, cfg.n_membership)
             for mod in ("m1", "m2")} if cfg.encoder == "fuzzy" else {})

        # Spiking layers start with inflated weights so sparse binary inputs
        # can reach threshold; the ReLU baseline keeps the standard scale.
        gain = 10.0 if cfg.spiking else 1.0
        c_in = cfg.conv_input_channels()
        self.convs: dict[str, list[snn.ConvLifBlock]] = {}
        for mod in ("m1", "m2"):
            blocks, prev = [], c_in
            for c_out in cfg.conv_channels:
                blocks.append(snn.ConvLifBlock(
                    prev, c_out, cfg.conv_kernel, cfg.conv_stride,
                    cfg.conv_padding, neuron, rng, gain))
                prev = c_out
            self.convs[mod] = blocks

        th, tw = cfg.token_grid()
        self.n_tokens = th * tw
        self.emb = {mod: snn.Embedding(cfg.conv_channels[-1], self.n_tokens,
                                       cfg.c_emb, neuron, rng, gain)
                    for mod in ("m1", "m2")}
        self.cfl = snn.CrossFusionLayer(cfg.c_emb, cfg.n_heads, cfg.d_ff,
                                        neuron, cfg.theta_neg, rng, gain)
        self.head = snn.FcLifHead(self.n_tokens * cfg.c_emb, cfg.fc_hidden,
                                  neuron, rng, gain)

        pop_width = (cfg.m_population * N_ACTIONS
                     if cfg.decoder == "neural" else N_ACTIONS)
        bound = 1.0 / np.sqrt(cfg.fc_hidden)
        self.w_pop = Tensor(rng.uniform(-bound, bound, (cfg.fc_hidden, pop_width)),
                            name="w_pop")
        self.decoder = (fuzzy.NeuralDecoder(cfg.m_population, N_ACTIONS,
                                            cfg.dec_hidden, rng)
                        if cfg.decoder == "neural" else None)

        # The one ordered list of layers; parameter names (and so checkpoint
        # records) and the topology signature come from it.  The
        # population weights are a bare parameter between head and decoder.
        # A bank keeps the "bank0" prefix of the per-channel naming it
        # replaced, so checkpoint records and digests stay the same.
        self.layers: list[tuple[str, ad.Module | Tensor]] = [
            (f"{mod}.bank0", bank) for mod, bank in self.banks.items()]
        for mod in ("m1", "m2"):
            self.layers += [(f"{mod}.conv{bi}", block)
                            for bi, block in enumerate(self.convs[mod])]
            self.layers.append((f"{mod}.emb", self.emb[mod]))
        self.layers += [("cfl", self.cfl), ("head", self.head),
                        ("w_pop", self.w_pop)]
        if self.decoder is not None:
            self.layers.append(("dec", self.decoder))

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        return _named_parameters(self.layers)

    def copy_parameters_from(self, other: "QNetwork") -> None:
        mine, theirs = self.named_parameters(), other.named_parameters()
        if mine.keys() != theirs.keys():
            raise ValueError("parameter sets differ; incompatible networks")
        for name, p in mine.items():
            p.value = theirs[name].value.copy()

    def parameter_digest(self) -> str:
        h = hashlib.sha256()
        for name, p in sorted(self.named_parameters().items()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(p.value).tobytes())
        return h.hexdigest()

    def topology_signature(self) -> str:
        """Digest of the shapes of the spiking layers every variant shares:
        all but the encoder banks, the population weights, the decoder and
        the first conv blocks (whose input width is the encoder's channel
        expansion)."""
        h = hashlib.sha256()
        shared = [(prefix, layer) for prefix, layer in self.layers
                  if isinstance(layer, SHARED_LAYERS)
                  and not prefix.endswith(".conv0")]
        for name, p in sorted(_named_parameters(shared).items()):
            h.update(f"{name}:{p.value.shape}".encode())
        return h.hexdigest()

    def save(self, path) -> None:
        save_records(path, {n: p.value for n, p in
                            self.named_parameters().items()})

    def load(self, path) -> None:
        params, records = self.named_parameters(), load_records(path)
        extra = [name for name in records if name not in params]
        if extra:
            raise CheckpointFormatError(
                f"checkpoint records match no parameter: {extra}")
        load_parameters(params, records)

    # -- forward ------------------------------------------------------------

    def _encode(self, mod: str, image: np.ndarray) -> Tensor:
        """(B,1,H,W) images -> (T*B, C', H, W) encoder output, T-major."""
        cfg = self.cfg
        if cfg.encoder == "fuzzy":
            return fuzzy.fuzzy_encode(self.banks[mod], image, cfg.t_steps,
                                      alpha=cfg.surrogate_alpha)
        if cfg.encoder == "rate":
            rng = np.random.default_rng(self._encode_seed + (mod == "m2"))
            return fuzzy.rate_encode(image, cfg.t_steps, rng)
        return ad.as_tensor(image)

    def _branch(self, mod: str, image: np.ndarray) -> Tensor:
        """One modality: (B,1,H,W) images in [0,1] -> (T*B, n_tokens, c_emb)
        token spikes through the encoder, conv blocks and embedding."""
        pixels = np.asarray(image)
        if not np.all((pixels >= 0.0) & (pixels <= 1.0)):  # NaN fails both
            raise ValueError(f"{mod} image has pixels outside [0,1]")
        x = self._encode(mod, pixels)
        for block in self.convs[mod]:
            x = block.step(x)
        return self.emb[mod].step(x)

    def forward(self, bev: np.ndarray, lidar: np.ndarray
                ) -> tuple[Tensor, Tensor | None]:
        """Batched forward: (B,1,H,W) images in [0,1] -> (B,|A|) Q tensor
        and the (B, M*|A|) population activations (None for 'none').  A
        pixel outside [0,1], NaN included, is a ValueError.

        Every layer runs once over all T steps of the batch (T*B rows); this
        equals stepping the stack T times because no layer feeds an earlier
        one within a step.
        """
        fused = self.cfl.step(self._branch("m1", bev),
                              self._branch("m2", lidar))
        lam = fuzzy.accumulate_population(self.head.step(fused), self.w_pop,
                                          self.cfg.effective_t)
        q = lam if self.decoder is None else self.decoder(lam)
        return q, (lam if self.cfg.spiking else None)

    def q_values(self, obs: dict) -> QVector:
        """Single-observation convenience around `forward`, without a graph."""
        bev = np.asarray(obs["bev"])[None]
        lidar = np.asarray(obs["lidar_grid"])[None]
        with ad.no_grad():
            q, _ = self.forward(bev, lidar)
        return QVector(q.value[0].copy())


# ---------------------------------------------------------------------------
# multiplication accounting
# ---------------------------------------------------------------------------

def count_multiplications(net: QNetwork) -> dict:
    """Per-stage multiply counts: the closed forms of `analysis.cost_model`
    (the table `sfqn analyze-cost` prints) next to counters measured on an
    instrumented forward of each stage for one random image."""
    cfg = net.cfg
    h, w = cfg.obs_hw
    image = np.random.default_rng(0).random((1, 1, h, w))

    with ad.count_mults() as c:
        spikes = net._encode("m1", image)
    measured_enc = c.mults

    first = net.convs["m1"][0]
    first_in = spikes.value[:1]                  # step 0 of the one sample
    with ad.count_mults() as c:
        ad.conv2d(first_in, first.kernels, first.stride, first.padding)
    measured_conv = c.mults

    analytic = cost_model(cfg)
    return {
        "encoder": {"analytic": analytic.encoder, "measured": measured_enc},
        "first_conv": {"analytic": analytic.first_conv,
                       "measured": measured_conv},
        "decoder_overhead": analytic.decoder_overhead,
    }
