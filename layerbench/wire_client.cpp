#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace layerbench {

using parisax::FrameHeader;
using parisax::Result;
using parisax::Status;

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status WireClient::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError(std::string("connect: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status WireClient::Send(const std::vector<uint8_t>& frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return Status::IOError("send failed");
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status WireClient::ReadFull(uint8_t* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, buf + got, n - got, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return Status::IOError("connection closed");
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Result<FrameHeader> WireClient::Read(std::vector<uint8_t>* body) {
  uint8_t header_bytes[parisax::kFrameHeaderSize];
  Status st = ReadFull(header_bytes, sizeof(header_bytes));
  if (!st.ok()) return st;
  auto header = parisax::DecodeFrameHeader(header_bytes);
  if (!header.ok()) return header.status();
  body->resize(header->body_len);
  if (!body->empty()) {
    st = ReadFull(body->data(), body->size());
    if (!st.ok()) return st;
  }
  return *header;
}

void WireClient::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace layerbench
