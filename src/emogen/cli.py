"""Command line interface: synth | splits | train | generate | evaluate | matrix.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric error,
1 anything else. Logs go to stderr; outputs go to files only. The
EMOGEN_THREADS environment variable caps BLAS thread counts (default 1),
which keeps runs bit-reproducible on a machine.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _set_thread_env() -> None:
    threads = os.environ.get("EMOGEN_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emogen",
        description="Multi-task response generation with emotion recognition heads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write synthetic datasets, labels and a manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--size", type=int, default=2000)
    p.add_argument("--cls-size", type=int, default=None)

    p = sub.add_parser("splits", help="split a TSV into train/valid/test at 8:1:1")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--subsample", type=float, default=1.0)
    p.add_argument("--subsample-scope", choices=("total", "train"), default="train")

    p = sub.add_parser("train", help="train one model from a manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("generate", help="beam-decode responses for a file of utterances")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    # Beam options left unset take BeamConfig's defaults.
    p.add_argument("--beams", dest="beam_width", metavar="BEAMS", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--no-repeat-ngram", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-len", type=int, default=argparse.SUPPRESS)
    p.add_argument("--length-penalty", type=float, default=argparse.SUPPRESS)
    p.add_argument("--vocab", default=None)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pred", default=None)
    p.add_argument("--gold", default=None)
    p.add_argument("--labels", default=None)

    p = sub.add_parser("matrix", help="train and evaluate every manifest variant")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    _set_thread_env()
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("EMOGEN_LOG", "INFO"),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)

    from . import commands
    from .decoding import BeamConfig
    from .errors import ConfigError, DataError, EmogenError, NumericError

    try:
        if args.command == "synth":
            commands.cmd_synth(args.out, args.seed, args.size, args.cls_size)
        elif args.command == "splits":
            commands.cmd_splits(args.input, args.out, args.seed,
                                args.subsample, args.subsample_scope)
        elif args.command == "train":
            commands.cmd_train(args.config, args.out)
        elif args.command == "generate":
            beam = {f.name: getattr(args, f.name) for f in fields(BeamConfig)
                    if hasattr(args, f.name)}
            commands.cmd_generate(args.checkpoint, args.input, args.output,
                                  BeamConfig(**beam), args.vocab)
        elif args.command == "evaluate":
            commands.cmd_evaluate(args.hyp, args.ref, args.out,
                                  args.pred, args.gold, args.labels)
        elif args.command == "matrix":
            commands.cmd_matrix(args.config, args.out)
    except ConfigError as e:
        logging.getLogger("emogen").error("config error: %s", e)
        return EXIT_CONFIG
    except DataError as e:
        logging.getLogger("emogen").error("data error: %s", e)
        return EXIT_DATA
    except NumericError as e:
        logging.getLogger("emogen").error("numeric error: %s", e)
        return EXIT_NUMERIC
    except EmogenError as e:
        logging.getLogger("emogen").error("%s", e)
        return EXIT_OTHER
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
