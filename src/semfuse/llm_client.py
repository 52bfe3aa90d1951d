"""Class-description client: prompt template, chat-completion fetch,
and a deterministic on-disk cache so experiments run offline.

Descriptions are fetched once and frozen; every later run reads only
the cache. Cache layout: ``<dir>/<class-slug>.txt`` plus ``meta.txt``.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ContractError, ProviderError, TransportError

PROMPT_TEMPLATE = (
    "Describe the {name} object in at most ten sentences using the specific "
    "physical features and do not need to mention the features that are not "
    "available in the object. Also, do not use any numeric in descriptions; "
    "instead, use words."
)

_SLUG = re.compile(r"[^a-z0-9]+")


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
    temperature: float = 0.0
    timeout: float = 30.0


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
        return path.read_text(encoding="utf-8")

    def put(self, class_name: str, text: str) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.path_for(class_name), text)

    def write_meta(self, endpoint: EndpointConfig) -> None:
        meta = (
            f"model = {endpoint.model}\n"
            f"temperature = {endpoint.temperature}\n"
            f"prompt_hash = {prompt_hash()}\n"
            f"fetched_at = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}\n"
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.directory / "meta.txt", meta)


def prompt_hash() -> str:
    return hashlib.sha256(PROMPT_TEMPLATE.encode("utf-8")).hexdigest()[:16]


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _http_post(url: str, headers: dict, payload: dict, timeout: float) -> dict:
    import requests

    try:
        response = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc
    if response.status_code != 200:
        raise TransportError(f"{url} answered {response.status_code}: {response.text[:200]}")
    try:
        return response.json()
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
        "temperature": endpoint.temperature,
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    send = transport if transport is not None else _http_post
    data = send(endpoint.url, headers, payload, endpoint.timeout)
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
