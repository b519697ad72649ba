import dataclasses

import numpy as np
import pytest

from poolruin import claims, model


@pytest.fixture
def m1_model():
    """One client, unit rates, Exp(1) claim: the hand-solvable reference."""
    return model.ModelSpec(
        m=1,
        lambda_circ=(1.0,),
        claims=(claims.Exponential(1.0),),
        regimes=(model.drift(1.0), model.drift(1.0)),
    )


def random_drift_model(rng: np.random.Generator, m_max: int = 6) -> model.ModelSpec:
    m = int(rng.integers(1, m_max + 1))
    laws = []
    for _ in range(m):
        if rng.random() < 0.5:
            laws.append(claims.Exponential(float(rng.uniform(0.2, 3.0))))
        else:
            laws.append(
                claims.Erlang(int(rng.integers(1, 4)), float(rng.uniform(0.2, 3.0)))
            )
    return model.ModelSpec(
        m=m,
        lambda_circ=tuple(rng.uniform(0.1, 5.0, m)),
        claims=tuple(laws),
        regimes=tuple(model.drift(float(r)) for r in rng.uniform(0.1, 5.0, m + 1)),
    )


def cold(mdl: model.ModelSpec) -> model.ModelSpec:
    """An equal copy of ``mdl`` with no engines of its own yet: each thread
    keeps the engines of its most recent model object, so a test that needs
    independent engines asks each for a fresh copy."""
    return dataclasses.replace(mdl)


def battery_models(seed: int) -> list:
    """(model, beta) of the seed-drawn rows of the ``transform_battery``
    benchmark workload (perfbench/workloads.py): 21 drift models per client
    count m = 1..6."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(126):
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        m = 1 + i % 6
        laws = []
        for _ in range(m):
            if rng.random() < 0.5:
                laws.append(claims.Exponential(float(rng.uniform(0.2, 3.0))))
            else:
                laws.append(
                    claims.Erlang(int(rng.integers(1, 4)), float(rng.uniform(0.2, 3.0)))
                )
        mdl = model.ModelSpec(
            m=m,
            lambda_circ=tuple(float(x) for x in rng.uniform(0.1, 5.0, m)),
            claims=tuple(laws),
            regimes=tuple(model.drift(float(r)) for r in rng.uniform(0.1, 5.0, m + 1)),
        )
        out.append((mdl, beta))
    return out
