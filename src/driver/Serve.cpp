//===- driver/Serve.cpp ---------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/Serve.h"

#include "driver/Batch.h"
#include "driver/Serialize.h"
#include "driver/V1b.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <csignal>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace vif;
using namespace vif::driver;

namespace {

/// One decoded, validated request. Validation is strict: the wire format
/// is versioned, so an unknown member is a client bug to report, not
/// noise to ignore (docs/SERVER.md).
struct ServeRequest {
  std::string Command;
  std::string Path;
  bool HasSource = false;
  std::string Source;
  /// Source-by-reference: the content hash of a source some earlier
  /// request sent inline (the server echoes it as "contentKey").
  bool HasContentKey = false;
  std::string ContentKey;
  std::string Name;
  BatchMode Mode = BatchMode::Check;
  FlowMethod Method = FlowMethod::Native;
  SessionOptions Session;
  FlowPolicy Policy;
  /// Query mode: the "from" / "to" option pair (both required).
  std::string From;
  std::string To;
  bool HasFrom = false;
  bool HasTo = false;
  /// "format": "v1b" — answer with one binary frame (driver/V1b.h)
  /// instead of the JSON document. Errors are always JSON.
  bool V1b = false;
};

/// Returns the name of the first duplicated member of \p Obj, or "".
/// The protocol is strict about duplicates: last-one-wins would silently
/// analyze the wrong input, and our find() lookups take the first.
std::string firstDuplicateMember(const JsonValue &Obj) {
  for (size_t I = 0; I < Obj.members().size(); ++I)
    for (size_t J = I + 1; J < Obj.members().size(); ++J)
      if (Obj.members()[I].first == Obj.members()[J].first)
        return Obj.members()[I].first;
  return "";
}

/// Fills \p R from the request's "options" object; returns an error
/// message, or "" on success.
std::string parseRequestOptions(const JsonValue &Options, ServeRequest &R) {
  if (!Options.isObject())
    return "\"options\" must be an object";
  if (std::string Dup = firstDuplicateMember(Options); !Dup.empty())
    return "duplicate option \"" + Dup + "\"";
  for (const auto &[Key, Value] : Options.members()) {
    if (Key == "statements" || Key == "improved" || Key == "endOut") {
      if (!Value.isBool())
        return "option \"" + Key + "\" must be a boolean";
      if (Key == "statements")
        R.Session.Statements = Value.asBool();
      else if (Key == "improved")
        R.Session.Ifa.Improved = Value.asBool();
      else
        R.Session.Ifa.ProgramEndOutgoing = Value.asBool();
    } else if (Key == "method") {
      if (R.Mode != BatchMode::Flows)
        return "option \"method\" only applies to \"flows\"";
      if (!Value.isString())
        return "option \"method\" must be a string";
      std::optional<FlowMethod> M = parseFlowMethod(Value.asString());
      if (!M)
        return "unknown method \"" + Value.asString() + "\"";
      R.Method = *M;
    } else if (Key == "from" || Key == "to") {
      if (R.Mode != BatchMode::Query)
        return "option \"" + Key + "\" only applies to \"query\"";
      if (!Value.isString())
        return "option \"" + Key + "\" must be a string";
      if (Key == "from") {
        R.From = Value.asString();
        R.HasFrom = true;
      } else {
        R.To = Value.asString();
        R.HasTo = true;
      }
    } else if (Key == "forbid") {
      if (R.Mode != BatchMode::Report)
        return "option \"forbid\" only applies to \"report\"";
      if (!Value.isArray())
        return "option \"forbid\" must be an array";
      for (const JsonValue &Rule : Value.elements()) {
        const JsonValue *From = Rule.isObject() ? Rule.find("from") : nullptr;
        const JsonValue *To = Rule.isObject() ? Rule.find("to") : nullptr;
        if (!From || !To || !From->isString() || !To->isString() ||
            Rule.members().size() != 2)
          return "each \"forbid\" rule must be {\"from\": ..., \"to\": ...}";
        R.Policy.Forbidden.push_back({From->asString(), To->asString()});
      }
    } else {
      return "unknown option \"" + Key + "\"";
    }
  }
  return "";
}

/// Decodes the already-parsed request object into \p R; returns an error
/// message, or "" on success. "schema" and "id" were handled by the
/// caller.
std::string parseRequest(const JsonValue &Doc, ServeRequest &R) {
  if (std::string Dup = firstDuplicateMember(Doc); !Dup.empty())
    return "duplicate member \"" + Dup + "\"";
  const JsonValue *Options = nullptr;
  bool HasFormat = false;
  for (const auto &[Key, Value] : Doc.members()) {
    if (Key == "schema" || Key == "id")
      continue;
    if (Key == "command") {
      if (!Value.isString())
        return "\"command\" must be a string";
      R.Command = Value.asString();
    } else if (Key == "path") {
      if (!Value.isString())
        return "\"path\" must be a string";
      R.Path = Value.asString();
    } else if (Key == "source") {
      if (!Value.isString())
        return "\"source\" must be a string";
      R.HasSource = true;
      R.Source = Value.asString();
    } else if (Key == "contentKey") {
      if (!Value.isString())
        return "\"contentKey\" must be a string";
      R.HasContentKey = true;
      R.ContentKey = Value.asString();
    } else if (Key == "name") {
      if (!Value.isString())
        return "\"name\" must be a string";
      R.Name = Value.asString();
    } else if (Key == "format") {
      if (!Value.isString())
        return "\"format\" must be a string";
      const std::string &F = Value.asString();
      if (F == "v1b")
        R.V1b = true;
      else if (F != "json")
        return "unknown format \"" + F + "\" (expected \"json\" or \"v1b\")";
      HasFormat = true;
    } else if (Key == "options") {
      Options = &Value;
    } else {
      return "unknown member \"" + Key + "\"";
    }
  }

  if (R.Command.empty())
    return "missing \"command\"";
  std::optional<BatchMode> Mode = parseBatchMode(R.Command);
  if (!Mode && R.Command != "ping" && R.Command != "stats" &&
      R.Command != "shutdown")
    return "unknown command \"" + R.Command + "\"";

  if (!Mode) {
    if (!R.Path.empty() || R.HasSource || R.HasContentKey ||
        !R.Name.empty() || Options || HasFormat)
      return "\"" + R.Command + "\" takes no input or options";
    return "";
  }
  R.Mode = *Mode;

  if (int(R.HasSource) + int(R.HasContentKey) + int(!R.Path.empty()) != 1)
    return "exactly one of \"path\", \"source\" or \"contentKey\" is "
           "required";
  if (R.Path == "-")
    return "\"path\": \"-\" is not valid here: stdin is the transport";
  if (!R.Name.empty() && !R.HasSource && !R.HasContentKey)
    return "\"name\" only labels an inline \"source\" or a \"contentKey\"";
  if (Options)
    if (std::string Msg = parseRequestOptions(*Options, R); !Msg.empty())
      return Msg;
  if (R.Mode == BatchMode::Query && (!R.HasFrom || !R.HasTo))
    return "\"query\" requires options \"from\" and \"to\"";
  return "";
}

/// Echoes the request's "id" member (validated as string/number/null) in
/// the one rendering the v1b IDNT section shares (renderIdToken).
void writeId(JsonWriter &J, const JsonValue *Id) {
  if (!Id)
    return;
  J.key("id");
  J.rawValue(renderIdToken(*Id));
}

std::string errorResponse(const JsonValue *Id, std::string_view Code,
                          std::string_view Message) {
  std::string Out;
  JsonWriter J(Out, JsonStyle::Compact);
  J.beginObject();
  writeSchemaTag(J);
  writeId(J, Id);
  J.member("status", "error");
  writeErrorObject(J, Code, Message);
  J.endObject();
  return Out;
}

/// Writes \p Line + '\n' to \p Fd; false (errno set) on a write error.
bool writeLine(int Fd, std::string Line) {
  Line += '\n';
  for (size_t Off = 0; Off < Line.size();) {
    ssize_t W = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (W < 0 && errno != EINTR)
      return false;
    Off += W < 0 ? 0 : static_cast<size_t>(W);
  }
  return true;
}

} // namespace

namespace {

/// The content key of a source: 16 lowercase hex digits of its content
/// hash (the same builder the session cache keys with, minus options —
/// a contentKey names bytes, not an analysis).
std::string contentKeyOf(std::string_view Source) {
  return HashBuilder().str(Source).hex();
}

} // namespace

Server::Server(ServeOptions Opts)
    : Opts(Opts), Cache(Opts.CacheCapacity, Opts.CacheBytes) {
  if (!Opts.StoreDir.empty())
    Store = std::make_unique<ArtifactStore>(Opts.StoreDir);
  Cache.setArtifacts(&Artifacts, Store.get());
}

std::shared_ptr<const std::string>
Server::lookupContent(const std::string &Key) {
  std::lock_guard<std::mutex> G(ContentM);
  auto It = Content.find(Key);
  if (It == Content.end())
    return nullptr;
  ContentLru.splice(ContentLru.begin(), ContentLru, It->second.second);
  return It->second.first;
}

std::string Server::rememberContent(const std::string &Source) {
  std::string Key = contentKeyOf(Source);
  std::lock_guard<std::mutex> G(ContentM);
  auto It = Content.find(Key);
  if (It != Content.end()) {
    ContentLru.splice(ContentLru.begin(), ContentLru, It->second.second);
    return Key;
  }
  ContentLru.push_front(Key);
  Content.emplace(Key, std::make_pair(
                           std::make_shared<const std::string>(Source),
                           ContentLru.begin()));
  while (Content.size() > ContentCapacity) {
    Content.erase(ContentLru.back());
    ContentLru.pop_back();
  }
  return Key;
}

unsigned Server::effectiveWorkers() const {
  return Opts.Workers ? Opts.Workers : defaultJobs();
}

std::string Server::handleLine(const std::string &Line) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  InFlight.fetch_add(1, std::memory_order_relaxed);
  struct InFlightGuard {
    std::atomic<uint64_t> &C;
    ~InFlightGuard() { C.fetch_sub(1, std::memory_order_relaxed); }
  } Guard{InFlight};
  auto Start = std::chrono::steady_clock::now();

  std::string ParseError;
  std::optional<JsonValue> Doc = parseJson(Line, &ParseError);
  if (!Doc)
    return errorResponse(nullptr, "parse-error", ParseError);
  if (!Doc->isObject())
    return errorResponse(nullptr, "bad-request",
                         "request must be a JSON object");

  const JsonValue *Id = Doc->find("id");
  if (Id && !Id->isString() && !Id->isNumber() && !Id->isNull())
    return errorResponse(nullptr, "bad-request",
                         "\"id\" must be a string, number or null");
  if (const JsonValue *Schema = Doc->find("schema")) {
    if (!Schema->isString() || Schema->asString() != SchemaVersion)
      return errorResponse(Id, "unsupported-schema",
                           std::string("this server speaks \"") +
                               SchemaVersion + "\"");
  }

  ServeRequest R;
  R.Session = Opts.Session;
  if (std::string Msg = parseRequest(*Doc, R); !Msg.empty())
    return errorResponse(Id, "bad-request", Msg);

  std::string Out;
  JsonWriter J(Out, JsonStyle::Compact);

  if (R.Command == "ping" || R.Command == "shutdown") {
    if (R.Command == "shutdown")
      ShuttingDown.store(true, std::memory_order_release);
    J.beginObject();
    writeSchemaTag(J);
    writeId(J, Id);
    J.member("command", R.Command);
    J.member("status", "ok");
    J.endObject();
    return Out;
  }

  if (R.Command == "stats") {
    J.beginObject();
    writeSchemaTag(J);
    writeId(J, Id);
    J.member("command", R.Command);
    J.member("status", "ok");
    J.member("requests", Requests.load(std::memory_order_relaxed));
    // Counts this stats request itself, so it is always >= 1.
    J.member("inFlight", InFlight.load(std::memory_order_relaxed));
    writeCacheObject(J, Cache);
    if (Store)
      writeStoreObject(J, *Store);
    J.endObject();
    return Out;
  }

  BatchOptions B;
  B.Mode = R.Mode;
  B.Method = R.Method;
  B.Session = R.Session;
  B.Policy = std::move(R.Policy);
  B.QueryFrom = std::move(R.From);
  B.QueryTo = std::move(R.To);
  B.CaptureRenderedText = false;
  B.Cache = &Cache;

  BatchInput In;
  std::string ContentKey; // echoed so clients can go by-reference next
  if (R.HasContentKey) {
    std::shared_ptr<const std::string> Src = lookupContent(R.ContentKey);
    if (!Src)
      return errorResponse(Id, "unknown-content-key",
                           "no source cached under contentKey \"" +
                               R.ContentKey +
                               "\"; send it inline once first");
    In.Name = R.Name.empty() ? "<request>" : R.Name;
    In.Source = *Src;
    ContentKey = std::move(R.ContentKey);
  } else if (R.HasSource) {
    In.Name = R.Name.empty() ? "<request>" : R.Name;
    ContentKey = rememberContent(R.Source);
    In.Source = std::move(R.Source);
  } else {
    In.Name = R.Path;
  }

  DesignResult D = analyzeDesign(In, B);
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();

  if (R.V1b) {
    // One self-delimiting binary frame; no timings or cache statistics,
    // so identical requests yield byte-identical responses.
    std::string Frame;
    writeV1bDesign(Frame, D, B, Id ? renderIdToken(*Id) : "");
    return Frame;
  }

  J.beginObject();
  writeSchemaTag(J);
  writeId(J, Id);
  J.member("command", R.Command);
  if (!ContentKey.empty())
    J.member("contentKey", ContentKey);
  if (R.Mode == BatchMode::Flows)
    J.member("method", flowMethodName(R.Method));
  writeDesignBody(J, D, B);
  J.member("wallMs", WallMs);
  writeCacheObject(J, Cache);
  J.endObject();
  return Out;
}

bool Server::serveFd(int InFd, int OutFd, std::string *Error) {
  // A peer that disconnects before reading its response must cost us an
  // EPIPE write error (handled below), not a fatal SIGPIPE — also when
  // callers hand us their own fd without going through listenAndServe.
  std::signal(SIGPIPE, SIG_IGN);
  auto fail = [&](const char *What) {
    if (Error)
      *Error = std::string(What) + ": " + std::strerror(errno);
    return false;
  };
  auto respond = [&](std::string Line) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      return true;
    return writeLine(OutFd, handleLine(Line)) || fail("write");
  };

  // Buf holds no newline before Scanned, so each read scans only its own
  // bytes, and the lines it completes are erased once, together: linear
  // in the stream for multi-MB lines and long pipelined bursts alike.
  std::string Buf;
  size_t Scanned = 0;
  char Chunk[4096];
  while (!ShuttingDown) {
    ssize_t N = ::read(InFd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return fail("read");
    }
    if (N == 0)
      break;
    Buf.append(Chunk, static_cast<size_t>(N));
    size_t Start = 0, NL;
    while (!ShuttingDown &&
           (NL = Buf.find('\n', Scanned)) != std::string::npos) {
      if (!respond(Buf.substr(Start, NL - Start)))
        return false;
      Start = Scanned = NL + 1;
    }
    Buf.erase(0, Start);
    Scanned = Buf.size();
  }
  // A final request without a trailing newline still deserves an answer.
  if (!ShuttingDown && !Buf.empty())
    return respond(std::move(Buf));
  return true;
}

bool Server::listenAndServe(uint16_t Port, std::string *Error) {
  auto fail = [&](const char *What, int Sock) {
    if (Error)
      *Error = std::string(What) + ": " + std::strerror(errno);
    if (Sock >= 0)
      ::close(Sock);
    return false;
  };

  int Sock = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Sock < 0)
    return fail("socket", -1);
  int One = 1;
  ::setsockopt(Sock, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(Sock, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return fail("bind", Sock);

  unsigned Workers = effectiveWorkers();
  size_t MaxQueued =
      Opts.MaxQueuedConns ? Opts.MaxQueuedConns : 2 * size_t(Workers);
  // The kernel backlog follows the admission bound: connections we would
  // accept-and-shed anyway may as well queue in the kernel first, but a
  // tiny fixed backlog (the old hardcoded 8) made bursts of concurrent
  // connects fail with ECONNREFUSED before admission control ever saw
  // them.
  int Backlog = static_cast<int>(
      std::min<size_t>(size_t(Workers) + MaxQueued + 8, 256));
  if (::listen(Sock, Backlog) < 0)
    return fail("listen", Sock);

  sockaddr_in Bound;
  socklen_t BoundLen = sizeof(Bound);
  if (::getsockname(Sock, reinterpret_cast<sockaddr *>(&Bound),
                    &BoundLen) == 0)
    BoundPort.store(ntohs(Bound.sin_port), std::memory_order_release);
  else
    BoundPort.store(Port, std::memory_order_release);
  if (Opts.OnListening)
    Opts.OnListening(boundPort());

  // Accept loop + worker pool. Each queued task owns one accepted
  // connection: a worker runs the full per-connection pipelined request
  // loop, so responses on one connection stay in request order while
  // other connections progress on other workers. tryEnqueue failing is
  // the admission bound — the connection is answered with one
  // `overloaded` error line and closed instead of waiting unboundedly.
  {
    WorkerPool Pool(Workers, MaxQueued);
    const std::string Overloaded = errorResponse(
        nullptr, "overloaded",
        "server at connection capacity; retry later");
    while (!shuttingDown()) {
      // Poll with a timeout so a shutdown served on a worker thread
      // stops the accept loop promptly instead of blocking in accept
      // until one more client connects.
      pollfd P{Sock, POLLIN, 0};
      int Ready = ::poll(&P, 1, 100);
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        ::close(Sock);
        Pool.close();
        return fail("poll", -1);
      }
      if (Ready == 0)
        continue;
      int Conn = ::accept(Sock, nullptr, nullptr);
      if (Conn < 0) {
        if (errno == EINTR)
          continue;
        ::close(Sock);
        Pool.close();
        return fail("accept", -1);
      }
      bool Queued = Pool.tryEnqueue([this, Conn] {
        // Connections still queued when shutdown arrives are closed
        // unanswered (the drain guarantee covers requests in flight,
        // not connections that never reached a worker).
        if (!shuttingDown()) {
          std::string ConnError;
          if (!serveFd(Conn, Conn, &ConnError))
            // One broken connection must not take the server down:
            // log and keep serving everyone else (docs/SERVER.md).
            std::fprintf(stderr, "vifc serve: connection error: %s\n",
                         ConnError.c_str());
        }
        ::close(Conn);
      });
      if (!Queued) {
        writeLine(Conn, Overloaded); // best effort: the peer's problem
        ::close(Conn);
      }
    }
    // Stop accepting first, then drain: workers finish the requests they
    // are answering (serveFd re-checks shuttingDown between requests).
    ::close(Sock);
    Pool.close();
  }
  return true;
}
