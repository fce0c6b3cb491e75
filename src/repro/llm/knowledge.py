"""World knowledge tables for the simulated LLM.

A real LLM carries privacy-domain knowledge in its weights; the simulated
backend carries the equivalent in these curated tables: which broad category
a data term belongs under (seeded from the OPP-115 category scheme
the paper references), and which terms are privacy-context synonyms.
"""

from __future__ import annotations

#: Category -> head nouns / phrases whose presence puts a term under it.
#: Mirrors the OPP-115 data-type scheme plus the dynamic categories the
#: paper's Chain-of-Layer runs discover (personal vs technical data, etc.).
SEED_SUBSUMPTION: dict[str, frozenset[str]] = {
    "personal data": frozenset(
        {
            "name",
            "age",
            "birthday",
            "birthdate",
            "gender",
            "username",
            "password",
            "email",
            "email address",
            "phone number",
            "address",
            "profile image",
            "profile",
            "biography",
            "photo",
            "image",
            "language",
            "contact",
            "contact information",
            "identity document",
            "government id",
            "credentials",
            "resume",
            "signature",
        }
    ),
    "technical data": frozenset(
        {
            "ip address",
            "device",
            "device model",
            "device identifier",
            "operating system",
            "browser",
            "browser type",
            "screen resolution",
            "time zone",
            "battery",
            "battery level",
            "network",
            "mobile carrier",
            "crash report",
            "diagnostic data",
            "performance data",
            "log",
            "log data",
            "cookie",
            "pixel",
            "beacon",
            "sdk",
            "user agent",
            "app version",
            "keystroke patterns",
            "sensor data",
            "metadata",
            "timestamp",
        }
    ),
    "financial data": frozenset(
        {
            "payment",
            "payment information",
            "card",
            "credit card",
            "credit card information",
            "truncated credit card information",
            "transaction",
            "purchase",
            "billing address",
            "bank account",
            "financial information",
            "financial transaction data",
            "order",
            "invoice",
        }
    ),
    "location data": frozenset(
        {
            "location",
            "location information",
            "gps",
            "gps location",
            "precise location",
            "approximate location",
            "coordinates",
            "geolocation",
            "region",
            "city",
            "country",
            "postal code",
            "zip code",
        }
    ),
    "biometric data": frozenset(
        {
            "faceprint",
            "voiceprint",
            "fingerprint",
            "biometric identifier",
            "biometric template",
            "facial recognition data",
            "face geometry",
            "voice recording",
            "iris scan",
            "neural network embedding",
            "embedding",
        }
    ),
    "usage data": frozenset(
        {
            "browsing history",
            "search history",
            "watch history",
            "viewing history",
            "interaction",
            "interaction data",
            "engagement",
            "engagement data",
            "clickstream",
            "usage information",
            "activity",
            "session",
            "preferences",
            "settings",
            "interests",
            "behavioral data",
        }
    ),
    "content data": frozenset(
        {
            "content",
            "video",
            "videos",
            "audio",
            "message",
            "messages",
            "comment",
            "comments",
            "post",
            "livestream",
            "attachment",
            "document",
            "clipboard content",
            "camera feature content",
            "voice-enabled features content",
            "photos and videos",
            "feedback",
            "survey responses",
        }
    ),
    "health data": frozenset(
        {
            "diagnosis",
            "diagnoses",
            "medication",
            "medications",
            "allergy",
            "allergies",
            "immunization record",
            "lab result",
            "insurance member id",
            "heart rate",
            "step count",
            "sleep pattern",
            "blood pressure reading",
            "appointment history",
            "prescription refill request",
            "telehealth session recording",
            "health information",
            "fitness data",
            "medical information",
        }
    ),
    "social data": frozenset(
        {
            "contacts",
            "contact list",
            "phone contacts",
            "friends",
            "followers",
            "connections",
            "social graph",
            "social media account information",
            "group membership",
            "invitation",
        }
    ),
}

#: Sets of mutually equivalent terms in a privacy context.
SYNONYM_SETS: tuple[frozenset[str], ...] = (
    frozenset({"share", "disclose", "provide to"}),
    frozenset({"collect", "gather", "obtain"}),
    frozenset({"delete", "erase", "remove"}),
    frozenset({"store", "retain", "keep", "preserve"}),
    frozenset({"email", "email address", "e-mail", "e-mail address"}),
    frozenset({"phone number", "telephone number", "mobile number"}),
    frozenset(
        {"location", "location information", "location data", "gps location", "geolocation"}
    ),
    frozenset({"ip address", "internet protocol address"}),
    frozenset({"third parties", "third party", "third-party partners"}),
    frozenset({"advertisers", "advertiser", "advertising partners", "ad partners"}),
    frozenset({"service providers", "service provider", "vendors"}),
    frozenset({"contact information", "contact details", "contact data"}),
    frozenset({"device identifier", "device id", "hardware identifier"}),
    frozenset({"browsing history", "web history"}),
    frozenset({"user", "users", "you", "account holder", "data subject"}),
    frozenset({"purchase", "transaction", "order"}),
)

#: Suffix nouns whose addition does not change meaning ("email" vs
#: "email address", "location" vs "location information").
NEUTRAL_SUFFIXES: frozenset[str] = frozenset(
    {"information", "data", "details", "address"}
)


def synonym_set_of(term: str) -> frozenset[str] | None:
    """Return the synonym set containing ``term``, if any."""
    lowered = term.lower()
    for group in SYNONYM_SETS:
        if lowered in group:
            return group
    return None
