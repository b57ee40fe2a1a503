"""Make the pre-trained ensemble that the `search` workload reads.

The ensemble and its propensity model are trained with the generator seed
and training settings of acceptance test c06 (generator seed 0, 16 Cauchy
members with hidden layers (32, 32), 200 warm-up + 300 epochs, training
seed 0; propensity net with one hidden layer of 16 units, 200 epochs).
The files are written to ``modbench/inputs`` together with their SHA-256
digests, which ``run.py`` checks at set-up.

    python3 modbench/make_inputs.py

takes about two and a half minutes on one core.
"""

from __future__ import annotations

import json

import common  # sets the thread count and puts the checkout's src on sys.path

from modens import benchgen, mlp

SEARCH_GENERATOR = benchgen.GeneratorConfig(seed=0)
MEMBERS = 16
MEMBER_CONFIG = mlp.TrainConfig(hidden=(32, 32), epochs=300, warmup_epochs=200,
                                head=mlp.Head.CAUCHY)
PROPENSITY_CONFIG = mlp.TrainConfig(hidden=(16,), epochs=200)


def main() -> None:
    train, _, _ = benchgen.generate_dataset(None, SEARCH_GENERATOR)
    model = mlp.train_ensemble(train, MEMBER_CONFIG, seed=0, m=MEMBERS)
    prop = mlp.fit_propensity(train, PROPENSITY_CONFIG, seed=0)
    common.INPUTS.mkdir(parents=True, exist_ok=True)
    mlp.save_model(model, common.SEARCH_MODEL)
    mlp.save_propensity(prop, common.SEARCH_PROPENSITY, seed=0)
    digests = {p.name: common.sha256_file(p)
               for p in (common.SEARCH_MODEL, common.SEARCH_PROPENSITY)}
    common.SEARCH_DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(json.dumps(digests, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
