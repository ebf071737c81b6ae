"""Per-layer metrics: where spans are recorded and how they are summarised.

Each span wraps a public function of one layer at the site where its
caller looks it up, so the span covers exactly the call the caller makes.
`PER_LAYER` lists every metric the traced run reports, with its unit.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

SCHEMES = ("zf", "ia", "hybrid", "tdma")
MIB = 2 ** 20


def _library_bytes(tracer, library) -> None:
    tracer.counters["model.library_bytes"] += sum(f.nbytes for f in library.files)


def _stored_bytes(tracer, allocation) -> None:
    tracer.counters["caching.stored_bytes"] += sum(
        cf.bits.nbytes for content in allocation.per_en_content for cf in content
    )


def _trial_name(args) -> str:
    return f"phy.trial.{args[2].value}"  # run_trial(config, allocation, scheme, ...)


def sites(cli, bounds, converse, model, phy) -> list[tuple]:
    """(owner, attribute, span name, on_result) for every traced call."""
    return [
        (cli, "main", "cli.main", None),
        (cli, "default_mu_grid", "bounds.grid", None),
        (cli, "tradeoff_sweep", "bounds.sweep", None),
        (cli, "optimality_regions", "bounds.regions", None),
        (cli, "ndt_lower_bound", "bounds.lower", None),
        (bounds, "ndt_lower_bound", "bounds.lower", None),
        (bounds.TradeoffCurve, "value_at", "bounds.value_at", None),
        (model.FileLibrary, "random", "model.library", _library_bytes),
        (cli, "split_placement", "caching.placement", _stored_bytes),
        (cli, "full_placement", "caching.placement", _stored_bytes),
        (cli, "shared_placement", "caching.placement", _stored_bytes),
        (phy, "assignment_for_demand", "caching.assignment", None),
        (cli, "run_campaign", "phy.campaign", None),
        (phy, "run_trial", _trial_name, None),
        (cli, "estimate_ndt", "phy.fit", None),
        (cli, "verify_converse", "converse.verify", None),
        (converse, "sample_regular_channel", "converse.sample", None),
        (converse, "lambda_constant", "converse.lambda", None),
        (converse, "reconstruction_residual", "converse.reconstruction", None),
        (converse, "logdet_term", "converse.logdet", None),
        (converse, "logdet_oracle", "converse.oracle", None),
        (converse, "noise_cov_check", "converse.noise_cov", None),
    ]


# Metrics computed per traced pass; the run reports the median over passes.
_TIMES = {
    "model.library_s": "model.library",
    "bounds.grid_s": "bounds.grid",
    "bounds.sweep_s": "bounds.sweep",
    "bounds.lower_s": "bounds.lower",
    "bounds.value_at_s": "bounds.value_at",
    "bounds.regions_s": "bounds.regions",
    "caching.placement_s": "caching.placement",
    "caching.assignment_s": "caching.assignment",
    "phy.campaign_s": "phy.campaign",
    "phy.fit_s": "phy.fit",
    "converse.sample_s": "converse.sample",
    "converse.lambda_s": "converse.lambda",
    "converse.reconstruction_s": "converse.reconstruction",
    "converse.logdet_s": "converse.logdet",
    "converse.oracle_s": "converse.oracle",
    "converse.noise_cov_s": "converse.noise_cov",
}
_COUNTS = {
    "bounds.lower_calls": "bounds.lower",
    "bounds.value_at_calls": "bounds.value_at",
    "caching.assignment_calls": "caching.assignment",
    "converse.checks": "converse.oracle",
}

PER_LAYER: list[tuple[str, str, str]] = [
    # (name, unit, better)
    ("model.library_s", "s", "lower"),
    ("model.library_mib", "MiB", "lower"),
    ("bounds.grid_s", "s", "lower"),
    ("bounds.sweep_s", "s", "lower"),
    ("bounds.lower_calls", "count", "lower"),
    ("bounds.lower_s", "s", "lower"),
    ("bounds.value_at_calls", "count", "lower"),
    ("bounds.value_at_s", "s", "lower"),
    ("bounds.regions_s", "s", "lower"),
    ("caching.placement_s", "s", "lower"),
    ("caching.stored_mib", "MiB", "lower"),
    ("caching.assignment_calls", "count", "lower"),
    ("caching.assignment_s", "s", "lower"),
    ("phy.campaign_s", "s", "lower"),
    ("phy.kernel_self_s", "s", "lower"),
    ("phy.fit_s", "s", "lower"),
    *[
        (f"phy.{scheme}.{stat}", unit, better)
        for scheme in SCHEMES
        for stat, unit, better in (("trial_us_p50", "us", "lower"),
                                   ("trial_us_p99", "us", "lower"),
                                   ("trial_samples", "count", "higher"))
    ],
    ("converse.sample_s", "s", "lower"),
    ("converse.lambda_s", "s", "lower"),
    ("converse.reconstruction_s", "s", "lower"),
    ("converse.logdet_s", "s", "lower"),
    ("converse.oracle_s", "s", "lower"),
    ("converse.noise_cov_s", "s", "lower"),
    ("converse.oracle_share", "ratio", "lower"),
    ("converse.checks", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.digest_matches", "count", "higher"),
    ("cli.digests_compared", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def pass_metrics(tracer, lo: int, hi: int) -> dict[str, float]:
    """Layer metrics of one traced pass, from spans[lo:hi] and the counters."""
    spans = tracer.spans[lo:hi]
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += span.duration
        count[span.name] += 1
    out = {metric: total[name] for metric, name in _TIMES.items()}
    out.update({metric: count[name] for metric, name in _COUNTS.items()})
    self_times = tracer.self_times(lo, hi)
    out["cli.self_s"] = sum(t for span, t in zip(spans, self_times)
                            if span.name == "cli.main")
    out["trace.wall_s"] = total["cli.main"]
    out["phy.kernel_self_s"] = out["phy.campaign_s"] - out["caching.assignment_s"]
    out["converse.oracle_share"] = out["converse.oracle_s"] / total["cli.main"]
    out["model.library_mib"] = tracer.counters["model.library_bytes"] / MIB
    out["caching.stored_mib"] = tracer.counters["caching.stored_bytes"] / MIB
    return out


def trial_samples_us(tracer, scheme: str) -> list[float]:
    name = f"phy.trial.{scheme}"
    return [s.duration * 1e6 for s in tracer.spans if s.name == name]


def summarise(per_pass: list[dict[str, float]], tracer) -> dict[str, float]:
    """Median of each per-pass metric; trial percentiles pooled over passes."""
    out = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    for scheme in SCHEMES:
        samples = trial_samples_us(tracer, scheme)
        out[f"phy.{scheme}.trial_samples"] = len(samples)
        out[f"phy.{scheme}.trial_us_p50"] = statistics.median(samples) if samples else 0.0
        out[f"phy.{scheme}.trial_us_p99"] = (
            statistics.quantiles(samples, n=100)[98] if len(samples) > 1 else 0.0
        )
    return out
