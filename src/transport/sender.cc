#include "transport/sender.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "pint/frame.h"
#include "transport/collector_daemon.h"
#include "transport/io_hooks.h"

namespace pint {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

SocketSenderStream::SocketSenderStream(SocketSenderConfig config)
    : config_(std::move(config)) {
  if (config_.unix_path.empty() && config_.tcp_port == 0) {
    throw TransportError(
        "SocketSenderStream needs a unix path or a TCP port");
  }
  if (config_.source == 0) {
    throw TransportError("SocketSenderStream needs a nonzero source id");
  }
  if (config_.backoff_initial.count() <= 0) {
    config_.backoff_initial = std::chrono::milliseconds(1);
  }
  if (config_.backoff_max < config_.backoff_initial) {
    config_.backoff_max = config_.backoff_initial;
  }
  next_attempt_ = Clock::now();
  start_connect();
}

SocketSenderStream::~SocketSenderStream() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketSenderStream::start_connect() {
  const bool unix_domain = !config_.unix_path.empty();
  fd_ = ::socket(unix_domain ? AF_UNIX : AF_INET,
                 SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw TransportError(std::string("socket: ") + std::strerror(errno));
  }
  const int hint = static_cast<int>(
      std::min<std::size_t>(config_.buffer_hint_bytes, 1 << 30));
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &hint, sizeof(hint)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw TransportError(std::string("setsockopt(SO_SNDBUF): ") +
                         std::strerror(err));
  }
  // Frames are small and latency-bound (an epoch-close frame right behind
  // a payload must not wait out a delayed ACK), so disable Nagle.
  const int nodelay = 1;
  if (!unix_domain && ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                                   sizeof(nodelay)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw TransportError(std::string("setsockopt(TCP_NODELAY): ") +
                         std::strerror(err));
  }
  int rc;
  if (unix_domain) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      ::close(fd_);
      fd_ = -1;
      throw TransportError("unix socket path too long: " + config_.unix_path);
    }
    std::memcpy(addr.sun_path, config_.unix_path.c_str(),
                config_.unix_path.size() + 1);
    do {
      rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc < 0 && errno == EINTR);
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.tcp_port);
    do {
      rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc < 0 && errno == EINTR);
  }
  if (rc == 0) {
    // Connected synchronously (the usual unix-domain outcome).
    state_ = State::kConnecting;  // the shared completion path finishes it
    return;
  }
  if (errno == EINPROGRESS || errno == EAGAIN) {
    state_ = State::kConnecting;
    return;
  }
  // Daemon not up (ECONNREFUSED, ENOENT, ...): schedule a retry.
  ::close(fd_);
  fd_ = -1;
  state_ = State::kDisconnected;
  backoff_ = backoff_.count() == 0
                 ? config_.backoff_initial
                 : std::min(backoff_ * 2, config_.backoff_max);
  next_attempt_ = Clock::now() + backoff_;
}

bool SocketSenderStream::ensure_connected() {
  if (state_ == State::kConnected) return true;
  if (state_ == State::kDisconnected) {
    if (ever_connected_ && !config_.reconnect) return false;
    if (Clock::now() < next_attempt_) return false;
    start_connect();
    if (state_ != State::kConnecting) return false;
  }
  // kConnecting: a nonblocking connect completes when the fd turns
  // writable; SO_ERROR says whether it succeeded.
  pollfd pfd{fd_, POLLOUT, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return false;  // still in flight
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    ::close(fd_);
    fd_ = -1;
    state_ = State::kDisconnected;
    backoff_ = backoff_.count() == 0
                   ? config_.backoff_initial
                   : std::min(backoff_ * 2, config_.backoff_max);
    next_attempt_ = Clock::now() + backoff_;
    return false;
  }
  state_ = State::kConnected;
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
  backoff_ = std::chrono::milliseconds(0);
  const auto hello = encode_hello(config_.source);
  hello_pending_.assign(hello.begin(), hello.end());
  return true;
}

void SocketSenderStream::handle_disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  state_ = State::kDisconnected;
  // A torn chunk tail or an unfinished epoch on the dead connection means
  // the stream must resume at the next epoch boundary, not mid-epoch.
  need_resync_ = need_resync_ || in_epoch_ || !pending_.empty();
  in_epoch_ = false;
  pending_.clear();
  hello_pending_.clear();
  backoff_ = config_.backoff_initial;
  next_attempt_ = Clock::now() + backoff_;
}

ssize_t SocketSenderStream::send_some(const std::uint8_t* data,
                                      std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = io_hooks().send(fd_, data + sent, len - sent,
                                      MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EPIPE/ECONNRESET/...: the connection is gone.
      handle_disconnect();
      return -1;
    }
    sent += static_cast<std::size_t>(n);
    bytes_sent_ += static_cast<std::uint64_t>(n);
  }
  return static_cast<ssize_t>(sent);
}

bool SocketSenderStream::flush_buffers() {
  if (!hello_pending_.empty()) {
    const ssize_t n = send_some(hello_pending_.data(), hello_pending_.size());
    if (n < 0) return false;
    hello_pending_.erase(hello_pending_.begin(), hello_pending_.begin() + n);
    if (!hello_pending_.empty()) return false;
  }
  if (!pending_.empty()) {
    const ssize_t n = send_some(pending_.data(), pending_.size());
    if (n < 0) return false;
    pending_.erase(pending_.begin(), pending_.begin() + n);
    if (!pending_.empty()) return false;
  }
  return true;
}

bool SocketSenderStream::try_write(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > capacity()) {
    throw OversizedChunkError(bytes.size(), capacity());
  }
  if (write_closed_) return false;
  const std::optional<FrameType> type = peek_frame_type(bytes);
  if (need_resync_) {
    if (type != FrameType::kEpochOpen) {
      // Inside the resync window everything up to the next epoch-open is
      // shed: the epoch it belonged to is already incomplete at the
      // collector, and splicing its tail onto a fresh connection would be
      // corruption. Accepted-and-counted, like a drop-newest drop.
      ++frames_resync_discarded_;
      bytes_discarded_ += bytes.size();
      return true;
    }
    // The epoch-open that ends the window takes the normal path; if it
    // cannot go out yet the caller sees false and retries it.
  }
  if (!ensure_connected()) return false;
  if (!flush_buffers()) return false;  // pipe still full, or just died
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = send_some(bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (sent > 0) need_resync_ = true;  // the chunk is torn on the wire
      return false;
    }
    sent += static_cast<std::size_t>(n);
    if (sent < bytes.size()) {
      if (sent == 0) return false;  // clean refusal: nothing consumed
      // Kernel took a prefix: the chunk is committed; buffer the tail so
      // write order (and the all-or-nothing contract) is preserved.
      pending_.assign(bytes.begin() + static_cast<std::ptrdiff_t>(sent),
                      bytes.end());
      break;
    }
  }
  if (type == FrameType::kEpochOpen) {
    in_epoch_ = true;
    need_resync_ = false;
  } else if (type == FrameType::kEpochClose) {
    in_epoch_ = false;
  }
  return true;
}

std::size_t SocketSenderStream::read(std::span<std::uint8_t> out) {
  (void)out;
  return 0;
}

bool SocketSenderStream::wait_connected(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    if (ensure_connected() && flush_buffers()) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void SocketSenderStream::close_write() {
  if (write_closed_) return;
  // Bounded best-effort flush: the daemon should see every byte the
  // caller was told was accepted, but a dead peer must not wedge
  // shutdown. An unflushed tail surfaces at the collector as a typed
  // truncation/incomplete epoch, never as silence.
  const auto deadline = Clock::now() + config_.close_flush_timeout;
  while (Clock::now() < deadline) {
    if (ensure_connected() && flush_buffers()) break;
    if (state_ == State::kConnected && fd_ >= 0) {
      pollfd pfd{fd_, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, 10);
      } while (rc < 0 && errno == EINTR);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  write_closed_ = true;
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);  // orderly EOF at the daemon
}

}  // namespace pint
