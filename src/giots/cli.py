"""Command line entry point: serve a single component, run a scenario,
or validate an artifact from a file.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time

from .agent import Agent, AgentService, load_agent_config
from .broker import BrokerService
from .cse import CseService
from .httpkit import Stack
from .jsonfields import valid_port
from .knowledge import KnowledgeService
from .smg import MediationGateway, SmgService, load_gateway_config
from .validator import VALIDATION_KINDS, ValidatorService, validate

DEFAULT_PORTS = {
    "knowledge": 7100,
    "cse": 7101,
    "broker": 7102,
    "validator": 7103,
    "smg": 7104,
    "agent": 7105,
}


def port_number(text: str) -> int:
    """An argparse type: a ValueError becomes "invalid port_number value", exit 2."""
    if not valid_port(port := int(text)):
        raise ValueError(text)
    return port


def _stack(args: argparse.Namespace, component: str) -> Stack:
    return Stack({component: DEFAULT_PORTS[component] if args.port is None else args.port})


def _serve_forever(stack: Stack, service, port: int | None = None) -> int:
    """Serve until interrupted; the service starts once its port is bound."""
    try:
        handle = stack.serve(service.name, service, port)
    except (OSError, ValueError) as exc:  # PortInUse and TransportError are OSErrors
        stack.stop()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{service.name} listening on {handle.url}")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        stack.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.component == "knowledge":
        service = KnowledgeService()
    elif args.component == "cse":
        service = CseService()
    elif args.component == "broker":
        service = BrokerService(knowledge_url=args.knowledge_url)
    else:
        service = ValidatorService()
    return _serve_forever(_stack(args, args.component), service)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenario import run_scenario

    return run_scenario(args.file).exit_code


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = validate(args.kind, text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def _cmd_smg(args: argparse.Namespace) -> int:
    stack = _stack(args, "smg")
    port = stack.port("smg")
    try:
        config = load_gateway_config(args.config, gateway_url=f"http://127.0.0.1:{port}")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _serve_forever(stack, SmgService(MediationGateway(config)), port)


def _cmd_agent(args: argparse.Namespace) -> int:
    stack = _stack(args, "agent")
    port = stack.port("agent")
    try:
        config = load_agent_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _serve_forever(stack, AgentService(Agent(config, f"http://127.0.0.1:{port}")), port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giots", description="Desk-scale semantic IoT interoperability stack."
    )
    parser.add_argument(
        "--log-level", default="WARNING",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run one service in the foreground")
    serve.add_argument("component", choices=["knowledge", "cse", "broker", "validator"])
    serve.add_argument("--port", type=port_number, default=None)
    serve.add_argument(
        "--knowledge-url", default=None,
        help="knowledge server used by the broker for type subsumption",
    )
    serve.set_defaults(func=_cmd_serve)

    scenario = sub.add_parser("scenario", help="run a scenario file end to end")
    scenario.add_argument("file")
    scenario.set_defaults(func=_cmd_scenario)

    validate = sub.add_parser("validate", help="validate an artifact from a file")
    validate.add_argument("kind", choices=VALIDATION_KINDS)
    validate.add_argument("file")
    validate.set_defaults(func=_cmd_validate)

    smg = sub.add_parser("smg", help="run the mediation gateway")
    smg.add_argument("--config", required=True)
    smg.add_argument("--port", type=port_number, default=None)
    smg.set_defaults(func=_cmd_smg)

    agent = sub.add_parser("agent", help="run a knowledge processing agent")
    agent.add_argument("--config", required=True)
    agent.add_argument("--port", type=port_number, default=None)
    agent.set_defaults(func=_cmd_agent)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
