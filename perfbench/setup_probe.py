"""Time gradleak's set-up in a fresh interpreter and print the seconds.

Set-up is what a CLI run does before its first job: import the package,
parse each config, build the model, generate the dataset and initialize
the parameters.  Run as `PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG...`.
"""

import sys
import time


def main(paths):
    start = time.perf_counter()
    from gradleak.config import load_config
    from gradleak.experiments import build_model_from_config, load_dataset
    from gradleak.models import initialize_parameters

    for path in paths:
        cfg = load_config(path)
        spec = build_model_from_config(cfg)
        load_dataset(cfg)
        initialize_parameters(spec, cfg.init)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
