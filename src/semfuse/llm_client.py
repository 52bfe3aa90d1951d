"""Class-description client: prompt template, chat-completion fetch,
and a deterministic on-disk cache so experiments run offline.

Descriptions are fetched once and frozen; every later run reads only
the cache. Cache layout: ``<dir>/<class-slug>.txt`` plus ``meta.txt``.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ContractError, ProviderError, TransportError, open_utf8, written_whole

PROMPT_TEMPLATE = (
    "Describe the {name} object in at most ten sentences using the specific "
    "physical features and do not need to mention the features that are not "
    "available in the object. Also, do not use any numeric in descriptions; "
    "instead, use words."
)

_SLUG = re.compile(r"[^a-z0-9]+")
TEMPERATURE = 0.0  # every completion is asked for greedily
TIMEOUT_S = 30.0  # seconds one request may take


def build_prompt(class_name: str) -> str:
    """Fill the description-request template with a class name."""
    if not class_name or not class_name.strip():
        raise ContractError("class name must be non-empty")
    return PROMPT_TEMPLATE.format(name=class_name.strip())


def class_slug(class_name: str) -> str:
    slug = _SLUG.sub("_", class_name.strip().lower()).strip("_")
    if not slug:
        raise ContractError(f"class name {class_name!r} has no usable characters")
    return slug


@dataclass
class EndpointConfig:
    """Where and how to ask for completions; url=None means offline."""

    url: str | None = None
    api_key_env: str = "CHAT_API_KEY"
    model: str = "gpt-3.5-turbo"


class DescriptionCache:
    """One UTF-8 text file per class under a cache directory."""

    def __init__(self, directory):
        self.directory = Path(directory)

    def path_for(self, class_name: str) -> Path:
        return self.directory / f"{class_slug(class_name)}.txt"

    def get(self, class_name: str) -> str | None:
        path = self.path_for(class_name)
        if not path.exists():
            return None
        with open_utf8(path) as handle:
            return handle.read()

    def put(self, class_name: str, text: str) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        with written_whole(self.path_for(class_name), "w", encoding="utf-8") as handle:
            handle.write(text)

    def write_meta(self, endpoint: EndpointConfig) -> None:
        meta = (
            f"model = {endpoint.model}\n"
            f"temperature = {TEMPERATURE}\n"
            f"prompt_hash = {prompt_hash()}\n"
            f"fetched_at = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n"
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        with written_whole(self.directory / "meta.txt", "w", encoding="utf-8") as handle:
            handle.write(meta)


def prompt_hash() -> str:
    return hashlib.sha256(PROMPT_TEMPLATE.encode("utf-8")).hexdigest()[:16]


def _http_post(url: str, headers: dict, payload: dict, timeout: float) -> dict:
    # imported here: at module level urllib.request adds 3 MB to every command's RSS
    import json
    import urllib.error
    import urllib.request
    from http.client import HTTPException

    try:
        request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), method="POST")
        for name, value in {**headers, "Content-Type": "application/json"}.items():
            request.add_unredirected_header(name, value)  # a redirect carries no key elsewhere
        try:
            response = urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:  # an error status, read like any answer
            response = exc
        with response:
            status, body = response.status, response.read()
    except (OSError, ValueError, HTTPException) as exc:  # ValueError: a URL it cannot use
        raise TransportError(f"request to {url} failed: {getattr(exc, 'reason', exc)}") from exc
    if status != 200:
        raise TransportError(f"{url} answered {status}: {body.decode('utf-8', 'replace')[:200]}")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise ProviderError(f"{url} answered non-JSON content") from exc


def fetch_description(
    class_name: str,
    cache: DescriptionCache,
    endpoint: EndpointConfig | None,
    transport=None,
) -> str:
    """Description for a class, from cache or one completion request.

    A cache hit returns without touching the network. On a miss with no
    endpoint configured, or with the key variable unset, the call fails
    with a transport error naming the problem; an empty completion is a
    provider error. Fetched text is cached atomically.
    """
    cached = cache.get(class_name)
    if cached is not None:
        return cached
    if endpoint is None or endpoint.url is None:
        raise TransportError(
            f"offline: no cached description for {class_name!r} and no endpoint"
        )
    api_key = os.environ.get(endpoint.api_key_env)
    if not api_key:
        raise TransportError(
            f"environment variable {endpoint.api_key_env} is not set"
        )
    payload = {
        "model": endpoint.model,
        "messages": [{"role": "user", "content": build_prompt(class_name)}],
        "temperature": TEMPERATURE,
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    send = transport if transport is not None else _http_post
    data = send(endpoint.url, headers, payload, TIMEOUT_S)
    try:
        text = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProviderError(f"malformed completion payload: {data!r:.200}") from exc
    if not text or not text.strip():
        raise ProviderError(f"empty completion for class {class_name!r}")
    cache.put(class_name, text)
    cache.write_meta(endpoint)
    return text


def fetch_all(
    class_names: list[str],
    cache: DescriptionCache,
    endpoint: EndpointConfig | None,
    transport=None,
) -> tuple[int, int]:
    """Fetch every class, returning (fetched, already-cached) counts."""
    fetched = cached = 0
    for name in class_names:
        if cache.get(name) is not None:
            cached += 1
            continue
        fetch_description(name, cache, endpoint, transport)
        fetched += 1
    return fetched, cached
