#include "src/http/http.h"

#include <cstdint>

namespace incentag {
namespace http {
namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHeadEnd = "\r\n\r\n";

bool IsDigitChar(char c) { return c >= '0' && c <= '9'; }

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

void ParseQueryString(std::string_view qs, Request* out) {
  while (!qs.empty()) {
    size_t amp = qs.find('&');
    std::string_view pair =
        (amp == std::string_view::npos) ? qs : qs.substr(0, amp);
    qs = (amp == std::string_view::npos) ? std::string_view()
                                         : qs.substr(amp + 1);
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    std::string_view key =
        (eq == std::string_view::npos) ? pair : pair.substr(0, eq);
    std::string_view value =
        (eq == std::string_view::npos) ? std::string_view()
                                       : pair.substr(eq + 1);
    out->query.emplace_back(PercentDecode(key), PercentDecode(value));
  }
}

// Parses the head (request line + headers) in `head`, which excludes the
// terminating blank line. Returns false on malformed input.
bool ParseHead(std::string_view head, Request* out, std::string* error) {
  size_t line_end = head.find(kCrlf);
  std::string_view request_line =
      (line_end == std::string_view::npos) ? head : head.substr(0, line_end);
  std::string_view rest = (line_end == std::string_view::npos)
                              ? std::string_view()
                              : head.substr(line_end + kCrlf.size());

  size_t sp1 = request_line.find(' ');
  size_t sp2 =
      (sp1 == std::string_view::npos) ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    *error = "bad request line";
    return false;
  }
  out->method = std::string(request_line.substr(0, sp1));
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = request_line.substr(sp2 + 1);
  if (out->method.empty() || target.empty() || target[0] != '/') {
    *error = "bad request line";
    return false;
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    *error = "unsupported HTTP version";
    return false;
  }
  // HTTP/1.0 defaults to close; 1.1 to keep-alive. The Connection
  // header below can override either way.
  out->keep_alive = (version == "HTTP/1.1");

  size_t frag = target.find('#');
  if (frag != std::string_view::npos) target = target.substr(0, frag);
  size_t qmark = target.find('?');
  if (qmark == std::string_view::npos) {
    out->path = PercentDecode(target);
  } else {
    out->path = PercentDecode(target.substr(0, qmark));
    ParseQueryString(target.substr(qmark + 1), out);
  }

  while (!rest.empty()) {
    size_t end = rest.find(kCrlf);
    std::string_view line =
        (end == std::string_view::npos) ? rest : rest.substr(0, end);
    rest = (end == std::string_view::npos) ? std::string_view()
                                           : rest.substr(end + kCrlf.size());
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      *error = "bad header line";
      return false;
    }
    std::string name = ToLowerAscii(Trim(line.substr(0, colon)));
    out->headers.emplace_back(std::move(name),
                              std::string(Trim(line.substr(colon + 1))));
  }
  return true;
}

}  // namespace

const std::string* Request::Header(std::string_view name) const {
  for (const auto& h : headers) {
    if (h.first == name) return &h.second;
  }
  return nullptr;
}

const std::string* Request::QueryParam(std::string_view name) const {
  for (const auto& q : query) {
    if (q.first == name) return &q.second;
  }
  return nullptr;
}

std::string PercentDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    if (c == '+') {
      out.push_back(' ');
      continue;
    }
    if (c == '%' && i + 2 < in.size()) {
      int hi = HexNibble(in[i + 1]);
      int lo = HexNibble(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(c);
  }
  return out;
}

ReadResult RequestReader::Fill() {
  char chunk[8192];
  util::Result<size_t> n = socket_->ReadSome(chunk, sizeof(chunk));
  if (!n.ok()) {
    if (n.status().code() == util::StatusCode::kDeadlineExceeded) {
      return {ReadOutcome::kTimeout, ""};
    }
    return {ReadOutcome::kTransport, n.status().ToString()};
  }
  if (n.value() == 0) return {ReadOutcome::kClosed, ""};
  buf_.append(chunk, n.value());
  return {ReadOutcome::kOk, ""};
}

ReadResult RequestReader::Next(Request* out) {
  *out = Request();
  // Phase 1: accumulate until the blank line ending the head.
  size_t head_end;
  while ((head_end = buf_.find(kHeadEnd)) == std::string::npos) {
    if (buf_.size() > limits_.max_head_bytes) {
      return {ReadOutcome::kTooLarge, "request head too large"};
    }
    ReadResult r = Fill();
    if (r.outcome != ReadOutcome::kOk) {
      // Bytes of a partial request make EOF/timeouts malformed/transport
      // rather than a clean end-of-stream.
      if (!buf_.empty() && r.outcome == ReadOutcome::kClosed) {
        return {ReadOutcome::kMalformed, "connection closed mid-request"};
      }
      return r;
    }
  }
  if (head_end > limits_.max_head_bytes) {
    return {ReadOutcome::kTooLarge, "request head too large"};
  }

  std::string error;
  if (!ParseHead(std::string_view(buf_).substr(0, head_end), out, &error)) {
    return {ReadOutcome::kMalformed, error};
  }

  // Phase 2: the body. Content-Length only; chunked is out of scope.
  if (out->Header("transfer-encoding") != nullptr) {
    return {ReadOutcome::kMalformed, "transfer-encoding not supported"};
  }
  size_t body_len = 0;
  if (const std::string* cl = out->Header("content-length")) {
    // RFC 9112 section 6.3: differing values leave the framing ambiguous,
    // and a proxy honouring another one would smuggle a request.
    for (const auto& [name, value] : out->headers) {
      if (name == "content-length" && value != *cl) {
        return {ReadOutcome::kMalformed, "conflicting content-length"};
      }
    }
    uint64_t parsed = 0;
    std::string_view text = *cl;
    if (text.empty()) return {ReadOutcome::kMalformed, "bad content-length"};
    for (char c : text) {
      if (!IsDigitChar(c)) {
        return {ReadOutcome::kMalformed, "bad content-length"};
      }
      if (parsed > (UINT64_MAX - 9) / 10) {
        return {ReadOutcome::kTooLarge, "content-length overflow"};
      }
      parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
    }
    if (parsed > limits_.max_body_bytes) {
      return {ReadOutcome::kTooLarge, "request body too large"};
    }
    body_len = static_cast<size_t>(parsed);
  }

  const size_t total = head_end + kHeadEnd.size() + body_len;
  while (buf_.size() < total) {
    ReadResult r = Fill();
    if (r.outcome != ReadOutcome::kOk) {
      if (r.outcome == ReadOutcome::kClosed) {
        return {ReadOutcome::kMalformed, "connection closed mid-body"};
      }
      return r;
    }
  }
  out->body = buf_.substr(head_end + kHeadEnd.size(), body_len);

  if (const std::string* conn = out->Header("connection")) {
    std::string v = ToLowerAscii(*conn);
    if (v == "close") out->keep_alive = false;
    if (v == "keep-alive") out->keep_alive = true;
  }

  // Retain pipelined bytes for the next call.
  buf_.erase(0, total);
  return {ReadOutcome::kOk, ""};
}

std::string_view StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 202:
      return "Accepted";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 412:
      return "Precondition Failed";
    case 413:
      return "Payload Too Large";
    case 416:
      return "Range Not Satisfiable";
    case 422:
      return "Unprocessable Entity";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

util::Status WriteResponse(util::Socket* socket, const Response& response,
                           bool keep_alive) {
  std::string out;
  out.reserve(response.body.size() + 256);
  out.append("HTTP/1.1 ");
  out.append(std::to_string(response.status));
  out.push_back(' ');
  out.append(StatusText(response.status));
  out.append(kCrlf);
  if (!response.content_type.empty()) {
    out.append("Content-Type: ");
    out.append(response.content_type);
    out.append(kCrlf);
  }
  out.append("Content-Length: ");
  out.append(std::to_string(response.body.size()));
  out.append(kCrlf);
  out.append(keep_alive ? "Connection: keep-alive" : "Connection: close");
  out.append(kCrlf);
  for (const auto& h : response.headers) {
    out.append(h.first);
    out.append(": ");
    out.append(h.second);
    out.append(kCrlf);
  }
  out.append(kCrlf);
  out.append(response.body);
  return socket->WriteAll(out);
}

}  // namespace http
}  // namespace incentag
